"""A standing mutation guard for the engines' rules.

Each mutant replaces one piece of source text, which must occur exactly
once in its file, in a temporary copy of the tree, and runs `pytest -x` on
the test files that guard those rules there.  A mutant is KILLED when the
tests fail and SURVIVED when they pass; every listed mutant should be
KILLED.  The script needs only the standard library and the interpreter's
pytest, and pytest does not collect it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 7        # mutants 3 and 7 (see --list)
    python tests/mutants.py --list

It exits 1 if any mutant survives or no longer applies.
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
REACH, SEM = "src/mustipula/reachability.py", "src/mustipula/semantics.py"

# (file, old text, new text, the rule it breaks)
MUTANTS = [
    # Forward search: the firings run inline in `explore`.
    (REACH, "if source[e] == state:", "if True:",
     "a tuple psi's due events fire at every state, not only at their source"),
    (REACH, "if firing and len(firing) > 1:", "if False:",
     "a tuple psi's firings keep shape order, so ev:9 comes before ev:10"),
    (SEM, "shapes.sort(key=lambda i: str(self.shapes[i][0]))", "shapes.sort()",
     "a packed psi's firings keep shape order, so ev:9 comes before ev:10"),
    (REACH, "rest = psi - unit", "rest = psi",
     "a packed firing leaves its event pending"),
    (REACH, "rest = psi - unit", "rest = psi & ~field",
     "a packed firing removes every copy of its event"),
    (REACH, "elif (body or check_all) and", "elif body and",
     "a continuation start over the psi cap with an empty body is admitted"),
    (REACH, "elif check_all:  # a call keeps", "elif False:  # a call keeps",
     "a start over the psi cap has its calls admitted"),
    (REACH, "elif clock >= max_clock:", "elif clock > max_clock:",
     "the clock cap admits one tick too many"),
    # Tick-plus: no tick where an event waits to be initialised.
    (SEM, "ticks = self.mode is Mode.TICK or state not in self.contract.init_ev", "ticks = True",
     "the forward search ticks in InitEv states under tick-plus"),
    (SEM, "self.no_tick = contract.init_ev if mode is Mode.TICK_PLUS else frozenset()", "self.no_tick = frozenset()",
     "a walk ticks in InitEv states under tick-plus"),
    # Backward procedure for DI.
    (REACH, "if known and not vec:", "if known:",
     "a basis element counts as covered whatever psi it still needs"),
    (REACH, "if sid is None and not bucket[0]:", "if sid is None:",
     "every state left in an uncovered basis is marked unreachable"),
]


def apply(tree: Path, path: str, old: str, new: str):
    file = tree / path
    text = file.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{path}: {old!r} occurs {text.count(old)} times, not once")
    text = text.replace(old, new)
    compile(text, path, "exec")  # a mutant must still be Python
    file.write_text(text)


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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
