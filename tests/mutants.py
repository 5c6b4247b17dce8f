"""A standing mutation guard for the engines' rules.

Each mutant replaces one piece of source text, which must occur exactly
once in its file, in a temporary copy of the tree, and runs `pytest -x` on
the test files that guard those rules there.  A mutant is KILLED when the
tests fail and SURVIVED when they pass; every listed mutant should be
KILLED.  Mutants known to change no outcome the tests can see are listed
apart as equivalent: each must still apply, and none is run.  The script
needs only the standard library and the interpreter's pytest, and pytest
does not collect it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 7        # mutants 3 and 7 (see --list)
    python tests/mutants.py --list

It exits 1 if any mutant survives or any mutant, equivalent ones included,
no longer applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_reachability.py", "tests/test_semantics.py", "tests/test_acceptance.py"]
FWD = "src/mustipula/forward.py"
REACH, SEM = "src/mustipula/reachability.py", "src/mustipula/semantics.py"

# (file, old text, new text, the rule it breaks)
MUTANTS = [
    # Forward search: the firings run inline in `explore`.
    (FWD, "if source[e] == state:", "if True:",
     "a tuple psi's due events fire at every state, not only at their source"),
    (FWD, "if firing and len(firing) > 1:", "if False:",
     "a tuple psi's firings keep shape order, so ev:9 comes before ev:10"),
    (FWD, "shapes.sort(key=lambda i: str(self.shapes[i][0]))", "shapes.sort()",
     "a packed psi's firings keep shape order, so ev:9 comes before ev:10"),
    (FWD, "rest = psi - unit", "rest = psi",
     "a packed firing leaves its event pending"),
    (FWD, "rest = psi - unit", "rest = psi & ~field",
     "a packed firing removes every copy of its event"),
    (FWD, "elif (body or check_all) and", "elif body and",
     "a continuation start over the psi cap with an empty body is admitted"),
    (FWD, "elif check_all:  # a call keeps", "elif False:  # a call keeps",
     "a start over the psi cap has its calls admitted"),
    (FWD, "elif clock >= max_clock:", "elif clock > max_clock:",
     "the clock cap admits one tick too many"),
    # Tick-plus: no tick where an event waits to be initialised.
    (FWD, "ticks = self.mode is Mode.TICK or state not in self.contract.init_ev", "ticks = True",
     "the forward search ticks in InitEv states under tick-plus"),
    (SEM, "self.no_tick = contract.init_ev if mode is Mode.TICK_PLUS else frozenset()", "self.no_tick = frozenset()",
     "a walk ticks in InitEv states under tick-plus"),
    # Pending multisets.
    (SEM, "return _sorted(self[:i] + self[i + 1 :])", "return _sorted([ev for ev in self if ev != event])",
     "remove_one drops every copy of the event"),
    (SEM, "_sorted(sorted(self + (other", "_sorted((self + (other",
     "union leaves psi unsorted"),
    (SEM, "if ev.delay:\n            low = lowered.get(ev)", "if True:\n            low = lowered.get(ev)",
     "a tick keeps the due events, at delay -1"),
    # Backward procedure for DI.
    (REACH, "if known and not vec:", "if known:",
     "a basis element counts as covered whatever psi it still needs"),
    (REACH, "if sid is None and not bucket[0]:", "if sid is None:",
     "every state left in an uncovered basis is marked unreachable"),
    (REACH, "pre -= min(pre & mask, unit)", "pre -= unit",
     "a State-Change predecessor subtracts its body without saturating"),
    (REACH, "if (vec := vec + self.units[ev[1:]]) & self.guard:", "if (vec := vec + self.units[ev[1:]]) & 0:",
     "packing a target ignores a count that reaches the guard bits"),
    (REACH, "if (vec + unit) & self.guard:", "if False:",
     "an Event-Match predecessor ignores a count that reaches the guard bits"),
]

# Mutants that no test can kill, with the reason they change no outcome.
# Each must still apply; none is run, and each is reported EQUIVALENT.
EQUIVALENT = [
    (REACH, "((vec | guard) - b) & guard == guard", "(vec - b) & guard == 0",
     "a covered check that does not OR in the guard is the same test while no operand has a guard bit set"),
]


def mutate(text: str, path: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"{path}: {old!r} occurs {text.count(old)} times, not once")
    text = text.replace(old, new)
    compile(text, path, "exec")  # a mutant must still be Python
    return text


def apply(tree: Path, path: str, old: str, new: str):
    file = tree / path
    file.write_text(mutate(file.read_text(), path, old, new))


def equivalent(path: str, old: str, new: str) -> str:
    try:
        mutate((ROOT / path).read_text(), path, old, new)
    except SyntaxError as error:
        return f"BROKEN ({error})"
    except ValueError as error:
        return f"STALE ({error})"
    return "EQUIVALENT"


def run(number: int, work: Path) -> str:
    path, old, new, reason = MUTANTS[number]
    tree = work / f"mutant{number}"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "contracts", tree / "contracts")
    try:
        apply(tree, path, old, new)
    except SyntaxError as error:
        return f"BROKEN ({error})"
    except ValueError as error:
        return f"STALE ({error})"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    shutil.rmtree(tree)
    if done.returncode == 0:
        return "SURVIVED"
    if done.returncode == 1:
        return "KILLED"
    return f"ERROR (pytest exit {done.returncode})"


def main(argv: list[str]) -> int:
    if "--list" in argv:
        for number, (path, old, new, reason) in enumerate(MUTANTS):
            print(f"{number:2} {path}: {reason}")
        for path, old, new, reason in EQUIVALENT:
            print(f" - {path}: {reason} (equivalent)")
        return 0
    chosen = [int(arg) for arg in argv] or range(len(MUTANTS))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        for number in chosen:
            start = time.perf_counter()
            verdict = run(number, Path(work))
            failed += verdict != "KILLED"
            path, _, _, reason = MUTANTS[number]
            print(f"{number:2} {verdict:8} {time.perf_counter() - start:5.1f} s  {path}: {reason}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    if not argv:
        for path, old, new, reason in EQUIVALENT:
            verdict = equivalent(path, old, new)
            failed += verdict != "EQUIVALENT"
            print(f" - {verdict:8}           {path}: {reason}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
