"""Command-line front end.

Exit codes: 0 success (including a definite UNREACHABLE verdict), 1 bounded
search gave UNKNOWN, 2 parse error or invalid argument, 3 fragment
precondition violated, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fragments, minsky, reachability, semantics, syntax
from .errors import MinskySyntaxError, MuStipulaError, NotDIError, StipulaSyntaxError

EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_PARSE = 2
EXIT_FRAGMENT = 3
EXIT_IO = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _natural(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be a natural number, got {value}")
    return value


def _limits(args) -> reachability.ExplorationLimits:
    return reachability.ExplorationLimits(
        max_configs=args.max_configs, max_clock=args.max_clock, max_psi=args.max_psi
    )


def _add_limit_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--max-configs", type=int, default=1_000_000)
    parser.add_argument("--max-clock", type=int, default=1_000)
    parser.add_argument("--max-psi", type=int, default=64)


def _add_mode_flag(parser: argparse.ArgumentParser):
    parser.add_argument("--mode", choices=["tick", "tickplus"], default="tick")


def _contract_payload(contract: syntax.Contract) -> dict:
    return {
        "name": contract.name,
        "init": contract.init,
        "functions": [
            {
                "source": fn.source,
                "name": fn.name,
                "target": fn.target,
                "events": [
                    {
                        "delay": ev.time.offset,
                        "line": ev.line,
                        "source": ev.source,
                        "target": ev.target,
                    }
                    for ev in fn.body
                ],
            }
            for fn in contract.functions
        ],
    }


def _cmd_parse(args) -> int:
    contract = syntax.parse(_read(args.file))
    if args.json:
        print(json.dumps(_contract_payload(contract), separators=(",", ":")))
    else:
        sys.stdout.write(syntax.render(contract))
    return EXIT_OK


def _cmd_classify(args) -> int:
    contract = syntax.parse(_read(args.file))
    flags = fragments.classify(contract).flags()
    print("fragments:" + ("" if not flags else " " + " ".join(flags)))
    initev = sorted(fragments.init_ev(contract))
    print("initev:" + ("" if not initev else " " + " ".join(initev)))
    return EXIT_OK


def _cmd_run(args) -> int:
    steps = _natural(args.steps, "--steps")
    contract = syntax.parse(_read(args.file))
    trace = semantics.run_random(contract, steps, args.seed, semantics.Mode.of(args.mode))
    if args.json:
        print(semantics.trace_json(trace))
    else:
        for step in trace.steps:
            cfg = step.config
            print(
                f"{step.label.text():<14} state={cfg.state} "
                f"clock={cfg.clock} |psi|={len(cfg.psi)}"
            )
    return EXIT_OK


def _cmd_reach(args) -> int:
    contract = syntax.parse(_read(args.file))
    verdict = reachability.bounded_reach(
        contract, args.state, _limits(args), semantics.Mode.of(args.mode)
    )
    if verdict.status == "reachable":
        print("REACHABLE")
        print("witness: " + " ".join(verdict.witness.labels()))
        return EXIT_OK
    detail = verdict.detail
    if not detail.startswith("exhausted"):
        detail = f"limit: {detail}"
    print(f"UNKNOWN ({detail})")
    return EXIT_UNKNOWN


def _cmd_decide(args) -> int:
    contract = syntax.parse(_read(args.file))
    if args.state is not None:
        target = reachability.state_target(contract, args.state)
    else:
        target = reachability.event_target(contract, args.event)
    covered = reachability.decide_coverable(contract, target)
    print("REACHABLE" if covered else "UNREACHABLE")
    return EXIT_OK


def _cmd_unreachable(args) -> int:
    contract = syntax.parse(_read(args.file))
    verdicts = reachability.unreachable_clauses(
        contract, _limits(args), semantics.Mode.of(args.mode)
    )
    ordered = sorted(
        verdicts.items(), key=lambda item: (item[0].kind, item[0].label, item[0].source)
    )
    if args.json:
        payload = [
            reachability.verdict_payload(clause, verdict) for clause, verdict in ordered
        ]
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for clause, verdict in ordered:
            print(f"{clause.text()}: {verdict.status}")
    if any(verdict.status == "unknown" for verdict in verdicts.values()):
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_encode_minsky(args) -> int:
    machine = minsky.parse_minsky(_read(args.file))
    contract = minsky.encode(machine, args.fragment)
    text = syntax.render(contract)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def _cmd_minsky_run(args) -> int:
    fuel = _natural(args.fuel, "--fuel")
    machine = minsky.parse_minsky(_read(args.file))
    result = minsky.minsky_run(machine, fuel)
    if isinstance(result, minsky.Halted):
        print(f"Halted({result.r1},{result.r2},{result.steps})")
    else:
        print("OutOfFuel")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mustipula", description="Contract interpreter and reachability analyzer"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a contract; print its canonical form")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("classify", help="report fragment membership and InitEv")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("run", help="sample a random execution trace")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_mode_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("reach", help="bounded forward search for a state")
    p.add_argument("file")
    p.add_argument("--state", required=True)
    _add_limit_flags(p)
    _add_mode_flag(p)
    p.set_defaults(fn=_cmd_reach)

    p = sub.add_parser("decide", help="complete DI decision for a state or event")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state")
    group.add_argument("--event", type=int)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("unreachable", help="per-clause reachability verdicts")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    _add_limit_flags(p)
    _add_mode_flag(p)
    p.set_defaults(fn=_cmd_unreachable)

    p = sub.add_parser("encode-minsky", help="compile a counter machine to a contract")
    p.add_argument("file")
    p.add_argument("--fragment", choices=["i", "ta", "d"], required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_encode_minsky)

    p = sub.add_parser("minsky-run", help="run a counter machine")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=10_000)
    p.set_defaults(fn=_cmd_minsky_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotDIError as err:
        print(f"NotDI: {err}", file=sys.stderr)
        return EXIT_FRAGMENT
    except (StipulaSyntaxError, MinskySyntaxError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (MuStipulaError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
