"""The benchmark's own smoke test: every workload at a tiny size, traced and
untraced, plus proof that a corrupted output is counted as failed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys

import pytest

import run  # puts the package source and this directory on sys.path
import tracer
from mustipula import reachability
from mustipula.reachability import Verdict
from mustipula.semantics import Trace

SEED = 3


def _sections():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec, {s: [m["name"] for m in spec[s]] for s in ("end_to_end", "per_layer")}


def test_benchmark_json_names_the_workloads_and_why():
    from workloads import WORKLOADS

    spec, _ = _sections()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(name, trace):
    result = run.measure(name, SEED, 0, trace, tiny=True)
    assert result["failures"] == []
    assert result["attempted"] >= 1
    _, sections = _sections()
    section = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(sections[section])
    summary = run.summary(result, run._metric_specs(section))
    assert summary["correct"] and summary["failed"] == 0


def _traced_tiny_run(name):
    """One traced tiny run in a process of its own, as the runner starts it."""
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
            "--seed", str(SEED), "--seconds", "0", "--trace", "1", "--tiny"]
    proc = subprocess.run(argv, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_traced_counts_repeat_across_processes():
    counts = (
        "reachability.configs_visited",
        "semantics.successors_calls",
        "reachability.pred_basis_calls",
        "reachability.config_leq_calls",
        "fragments.classify_calls",
        "fragments.init_ev_calls",
        "syntax.parse_calls",
    )
    for name in ("forward_reach", "backward_di"):
        first, second = _traced_tiny_run(name), _traced_tiny_run(name)
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_flipped_verdict_counts_as_failed(monkeypatch):
    original = reachability.unreachable_clauses

    def flipped(contract, *args, **kwargs):
        verdicts = original(contract, *args, **kwargs)
        clause = next(iter(verdicts))
        status = "unreachable" if verdicts[clause].status == "reachable" else "reachable"
        verdicts[clause] = Verdict(status)
        return verdicts

    monkeypatch.setattr(reachability, "unreachable_clauses", flipped)
    result = run.measure("backward_di", SEED, 0, False, tiny=True)
    summary = run.summary(result, run._metric_specs("end_to_end"))
    assert not summary["correct"]
    assert summary["failed"] >= summary["attempted"] // 2


def test_witness_with_a_dropped_label_counts_as_failed(monkeypatch):
    original = reachability.bounded_reach

    def dropped(*args, **kwargs):
        verdict = original(*args, **kwargs)
        if verdict.witness is not None and len(verdict.witness) >= 2:
            steps = verdict.witness.steps
            return Verdict.reachable(Trace(steps[:-2] + steps[-1:]))
        return verdict

    monkeypatch.setattr(reachability, "bounded_reach", dropped)
    result = run.measure("forward_reach", SEED, 0, False, tiny=True)
    assert any("reference semantics" in f for f in result["failures"])


def test_untraced_run_refuses_installed_wrappers():
    original = reachability.config_leq
    spans = tracer.Tracer()
    spans.install()
    try:
        assert reachability.config_leq is not original
        with pytest.raises(RuntimeError, match="wrappers installed"):
            run.measure("backward_di", SEED, 0, False, tiny=True)
    finally:
        spans.uninstall()
    assert reachability.config_leq is original
    assert tracer.installed() == []


def test_speed_probe_scales_each_call_by_the_slices_next_to_it():
    import speed

    probe = speed.SpeedProbe()
    probe.begin()
    probe.follow(0.0)
    probe.follow(0.0)
    # One slice before the calls and one after each: every call has a slice
    # on either side of it, and the middle slice serves both.
    assert probe.slices == 3
    factors = probe.factors()
    assert len(factors) == 2 and all(f > 0 for f in factors)
    probe.follow(0.1)
    assert probe.seconds >= speed.SHARE * 0.1
