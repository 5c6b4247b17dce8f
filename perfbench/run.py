"""Benchmark runner: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload forward_reach --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

The untraced run (`--trace 0`) times whole rounds of queries as a closed
loop with one single-threaded client until `--seconds` of query and
speed-probe time have passed, checks every output outside the timed pass,
and prints the end-to-end metrics that BENCHMARK.json lists, scaled to the
reference speed of `speed.py`.  The traced run (`--trace 1`)
runs each round twice, untraced and then under the wrappers of
`tracer.py`, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

`--workload all` runs the four workloads one after another, each in its own
fresh process, and prints every metric of each.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUPS_PER_ROUND = 2  # in each of the first TAIL_ROUNDS rounds
TAIL_BEYOND = 10
TAIL_ROUNDS = 3
WORKLOAD_NAMES = ("forward_reach", "backward_di", "simulate", "frontend")
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag

# The package under test comes from this checkout's source tree.
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _metric_specs(section: str) -> dict[str, str]:
    """Metric name -> unit, for one section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def tail_percentile(per_round: int) -> float:
    """The highest percentile that leaves at least TAIL_BEYOND queries beyond
    it in TAIL_ROUNDS rounds, which every untraced run completes.  It is
    fixed by the workload's shape, not by how many rounds a
    run completes, so a faster program does not move it."""
    queries = TAIL_ROUNDS * per_round
    if queries <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (queries - TAIL_BEYOND) / queries


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _clear_package_caches():
    """Empty every lru_cache of the package, so that a set-up meets the
    package as a fresh process does."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "mustipula" or module_name.startswith("mustipula."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import mustipula; print(time.perf_counter() - start)"
)


def _import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter, as a CLI
    user's process does."""
    argv = [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")]
    return float(subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout)


def _settle():
    """Collect garbage, then freeze the heap, so that the next call starts
    from the same collector state every time: empty generations and zero
    counts.  Its collections then traverse only what it allocates, as in a
    fresh process, not the inputs and outputs the benchmark holds; the phase
    of the collector no longer depends on what ran before.  gc.unfreeze()
    undoes it."""
    gc.collect()
    gc.freeze()
    gc.collect()


def _set_up(workload, index: int, probe):
    """One cold set-up: the package import in a fresh interpreter, then the
    workload's inputs and the queries of round `index`, built here from
    empty package caches and a settled heap.  Returns the queries, the
    seconds, and the seconds scaled to the reference speed."""
    _clear_package_caches()
    probe.begin()
    import_s = _import_seconds()
    _settle()
    start = time.perf_counter()
    workload.setup()
    queries = workload.round(index, "a")
    elapsed = import_s + time.perf_counter() - start
    gc.unfreeze()
    probe.follow(elapsed)
    return queries, elapsed, elapsed * probe.factors()[0]


def _timed(queries, probe=None):
    """Run a round; (outputs, seconds, factors), an output being the
    exception a query raised, if it raised.  Every query starts from a
    settled heap, so garbage and collector debt that earlier queries, rounds
    or checks left are not charged to it.  With a speed probe, its slices
    run between the queries, and `factors` scale each query's time to the
    reference speed."""
    if probe is not None:
        probe.begin()
    outputs, seconds = [], []
    for query in queries:
        _settle()
        start = time.perf_counter()
        try:
            output = query.run()
        except Exception as err:  # a failed query, counted by _check
            output = err
        seconds.append(time.perf_counter() - start)
        outputs.append(output)
        if probe is not None:
            probe.follow(seconds[-1])
    gc.unfreeze()
    factors = probe.factors() if probe is not None else [1.0] * len(seconds)
    return outputs, seconds, factors


def _check(workload, queries, outputs, failures: list[str]):
    from reference import CheckFailed

    for query, output in zip(queries, outputs):
        if isinstance(output, Exception):
            failures.append(f"{query.kind}: raised {output!r}")
            continue
        try:
            workload.check(query, output)
        except CheckFailed as err:
            failures.append(f"{query.kind}: {err}")
        except Exception as err:  # a malformed output the check could not read
            failures.append(f"{query.kind}: check raised {err!r}")


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run and check one workload in this process."""
    import tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[name](seed, tiny, workdir)
        result = {"workload": name, "seed": seed, "failures": []}
        if trace:
            _traced(workload, seconds, result, tracer)
        else:
            wrapped = tracer.installed()
            if wrapped:
                raise RuntimeError(f"untraced run found wrappers installed: {wrapped}")
            _untraced(workload, seconds, result)
        result["notes"] = workload.notes()
    return result


def _untraced(workload, seconds, result):
    """Time rounds until `seconds` of query and speed-probe time have
    passed, and at least TAIL_ROUNDS rounds have run.  Each of the first
    TAIL_ROUNDS rounds gets SETUPS_PER_ROUND cold set-ups, so that the
    set-up samples spread over the run as the queries do; `setup_s` is
    their median.  The metrics are computed from times scaled to the reference
    speed of `speed.py`; the report also gives them unscaled."""
    import speed

    probe = speed.SpeedProbe()
    raw = {"setup": [], "query": []}
    scaled = {"setup": [], "query": []}
    failures = result["failures"]
    index, peak_kb = 0, None
    while True:
        if index < TAIL_ROUNDS:
            for _ in range(SETUPS_PER_ROUND):
                queries, elapsed, elapsed_scaled = _set_up(workload, index, probe)
                raw["setup"].append(elapsed)
                scaled["setup"].append(elapsed_scaled)
        else:
            queries = workload.round(index, "a")
        result.setdefault("per_round", len(queries))
        outputs, times, factors = _timed(queries, probe)
        raw["query"] += times
        scaled["query"] += [t * f for t, f in zip(times, factors)]
        if peak_kb is None:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _check(workload, queries, outputs, failures)
        index += 1
        if index >= TAIL_ROUNDS and sum(raw["query"]) + probe.seconds >= seconds:
            break
    percentile = tail_percentile(result["per_round"])

    def timings(times):
        return {
            "setup_s": statistics.median(times["setup"]),
            "queries_per_s": len(times["query"]) / sum(times["query"]),
            "query_ms_p50": statistics.median(times["query"]) * 1e3,
            "query_ms_tail": nearest_rank(times["query"], percentile) * 1e3,
        }

    result.update(
        rounds=index,
        attempted=len(raw["query"]),
        setup_samples=len(raw["setup"]),
        tail_percentile=percentile,
        unscaled=timings(raw),
        speed=(probe.slices, probe.slice_s(), sum(scaled["query"]) / sum(raw["query"])),
        metrics={**timings(scaled), "peak_rss_mb": peak_kb / 1024},
    )


def _traced(workload, seconds, result, tracer):
    workload.setup()
    queries = workload.round(0, "a")
    result["per_round"] = len(queries)
    spans = tracer.Tracer()
    failures, records = result["failures"], []
    untraced_s = traced_s = 0.0
    index, first = 0, None
    while True:
        outputs, times, _ = _timed(queries)
        untraced_s += sum(times)
        records += zip(queries, outputs, times)
        _check(workload, queries, outputs, failures)

        spans.install()
        try:
            _settle()
            with spans.span("setup"):
                twins = workload.round(index, "b")
            twin_outputs = []
            for query in twins:
                _settle()
                with spans.span("query"):
                    start = time.perf_counter()
                    try:
                        twin_outputs.append(query.run())
                    except Exception as err:  # a failed query, counted by _check
                        twin_outputs.append(err)
                    traced_s += time.perf_counter() - start
        finally:
            gc.unfreeze()
            spans.uninstall()
        _check(workload, twins, twin_outputs, failures)
        if first is None:
            first = spans.snapshot()
        index += 1
        if untraced_s + traced_s >= seconds:
            break
        queries = workload.round(index, "a")

    metrics = tracer.layer_metrics(first, spans.snapshot(), index)
    metrics.update(workload.layer_metrics(records))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    trace_path = OUT / f"trace-{result['workload']}-{result['seed']}.json"
    spans.write(trace_path)
    result.update(rounds=index, attempted=2 * len(records), metrics=metrics, trace_file=str(trace_path))


def _report(result, units: dict[str, str]):
    failed = len(result["failures"])
    print(
        f"{result['workload']} seed {result['seed']}: {result['rounds']} round(s) of "
        f"{result['per_round']} queries, {result['attempted']} attempted, {failed} failed, "
        f"fail_rate {failed / result['attempted']:.6g}"
    )
    for name, unit in units.items():
        line = f"  {name:34s} {result['metrics'][name]:.6g} {unit}"
        if name == "query_ms_tail":
            line += (
                f"  (p{result['tail_percentile']:.2f}, nearest rank over {result['attempted']} "
                f"queries: the highest percentile with >= {TAIL_BEYOND} queries beyond it in "
                f"{TAIL_ROUNDS} rounds)"
            )
        elif name == "setup_s":
            line += f"  (median of {result['setup_samples']} cold set-ups)"
        print(line)
    if "speed" in result:
        import speed

        slices, slice_s, scale = result["speed"]
        print(
            f"  speed probe: {slices} slices, mean {slice_s * 1e3:.4g} ms against the reference "
            f"{speed.REFERENCE_SLICE_S * 1e3:.4g} ms; query times scaled by {scale:.4g} on the "
            "whole. Unscaled: "
            + ", ".join(f"{name} {value:.6g}" for name, value in result["unscaled"].items())
        )
    for note in result["notes"]:
        print("  note: " + note)
    for failure in result["failures"][:20]:
        print("  FAILED " + failure, file=sys.stderr)
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")


def summary(result, units: dict[str, str]) -> dict:
    failed = len(result["failures"])
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def _address_randomisation_off() -> bool:
    """Ask Linux to load this process's next image at fixed addresses.
    Returns False only when that changed something, so a re-exec is due."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        personality = libc.personality
    except (OSError, AttributeError):
        return True
    personality.argtypes = [ctypes.c_ulong]
    current = personality(0xFFFFFFFF)
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return True
    return personality(current | ADDR_NO_RANDOMIZE) == -1


def _pin_process(seed: int, fixed_addresses: bool):
    """Re-execute once with PYTHONHASHSEED derived from the seed, so that set
    iteration orders, and with them the work paths, repeat for one seed.

    The traced run also turns address randomisation off for its own
    process.  The backward fixpoint iterates sets of configurations whose
    hashes mix in hash(None), an address before Python 3.12; with it fixed,
    a seed's operation counts repeat exactly.  The untraced run keeps
    randomisation on, as a user's process has it."""
    want = str(seed % 2**32)
    relaunch = os.environ.get("PYTHONHASHSEED") != want
    if fixed_addresses and not _address_randomisation_off():
        relaunch = True
    if relaunch:
        env = dict(os.environ, PYTHONHASHSEED=want)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    _pin_process(args.seed, bool(args.trace))
    if not (ROOT / "src" / "mustipula" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mustipula'}", file=sys.stderr)
        return 2
    units = _metric_specs("per_layer" if args.trace else "end_to_end")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    _report(result, units)
    print(json.dumps(summary(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
