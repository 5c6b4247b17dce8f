"""Toolkit for the mustipula contract calculus: parser, operational
semantics, fragment classifier, reachability analyses, and counter-machine
encodings."""

from .errors import (
    DanglingStateError,
    DifferentContractsError,
    DuplicateClauseError,
    FinalHasInstructionError,
    InvalidContractError,
    MinskySyntaxError,
    MultipleEventsPerLineError,
    MuStipulaError,
    NotDIError,
    StipulaSyntaxError,
)
from .forward import ExplorationLimits, explore
from .fragments import FragmentSet, classify, init_ev
from .minsky import (
    DecJump,
    Halted,
    Inc,
    MachineConfig,
    MinskyMachine,
    OutOfFuel,
    denote_registers,
    encode,
    encode_d,
    encode_i,
    encode_ta,
    minsky_run,
    minsky_step,
    parse_minsky,
    run_trajectory,
)
from .reachability import (
    CoverBasis,
    Verdict,
    bounded_reach,
    config_leq,
    decide_coverable,
    event_target,
    minimize_basis,
    pred_basis,
    reachable_states,
    state_target,
    unreachable_clauses,
)
from .semantics import (
    EMPTY_PSI,
    Body,
    Configuration,
    Label,
    Mode,
    PendingEvent,
    PendingSet,
    Trace,
    TraceStep,
    decrement,
    initial_config,
    is_stuck,
    lower,
    nored,
    run_random,
    successors,
    trace_json,
)
from .syntax import (
    ClauseId,
    Contract,
    EventDecl,
    FunctionDecl,
    StateName,
    TimeExpr,
    clause_ids,
    parse,
    render,
    renumber,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
