import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

IMPORTED = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import mustipula, mustipula.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_the_standard_library():
    # The package, console script included, is stdlib-only at run time.
    # `-I` ignores PYTHONDONTWRITEBYTECODE, so `-B` keeps the import from
    # writing `__pycache__` into the source tree.
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", IMPORTED, str(SRC)],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = out.split()
    assert {"mustipula.cli", "argparse"} <= set(loaded)
    foreign = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"mustipula"}
    ]
    assert foreign == []
