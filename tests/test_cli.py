import contextlib
import gc
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import mustipula as mu
from mustipula import cli, parse, render, run_random, trace_json
from mustipula.cli import main
from mustipula.reachability import verdicts_json
from mustipula.semantics import (
    Body, Configuration, Label, PendingEvent, PendingSet, Quoted, Trace, TraceStep, step_texts,
)

from helpers import (
    CHAIN, EMPTY, MACHINES, PINGPONG, SAMPLE, contract_payload, inc_chain, odd_names,
    step_payload, trace_payload, verdict_payload,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("pingpong", PINGPONG),
        ("sample", SAMPLE),
        ("chain", CHAIN),
    ):
        p = tmp_path / f"{name}.stipula"
        p.write_text(text)
        paths[name] = str(p)
    machine = tmp_path / "m1.minsky"
    machine.write_text(MACHINES["inc_dec_inc"])
    paths["machine"] = str(machine)
    dash = tmp_path / "dash.minsky"  # a state name that is not an identifier
    dash.write_text("init q-1\nfinal QF\nq-1: inc r1 QF\n")
    paths["dash"] = str(dash)
    paths["dir"] = tmp_path
    return paths


def test_parse_renders_canonically(files, capsys):
    assert main(["parse", files["sample"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("stipula Sample {\n  init Init\n")


def test_parse_json(files, capsys):
    assert main(["parse", files["sample"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "Sample"
    assert payload["functions"][0]["events"][0]["line"] == 4


def test_parse_error_exit_code(files, capsys):
    bad = files["dir"] / "bad.stipula"
    bad.write_text("stipula X {\n  init\n}")
    assert main(["parse", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_is_io_error(files, capsys):
    assert main(["parse", str(files["dir"] / "absent.stipula")]) == 4


def test_classify_output(files, capsys):
    assert main(["classify", files["sample"]]) == 0
    assert capsys.readouterr().out == "fragments: I D DI\ninitev: Go\n"
    assert main(["classify", files["pingpong"]]) == 0
    assert capsys.readouterr().out == "fragments: TA D\ninitev: Q1 Q3\n"


def test_run_json_schema(files, capsys):
    assert main(["run", files["pingpong"], "--steps", "5", "--seed", "1", "--json"]) == 0
    steps = json.loads(capsys.readouterr().out)
    assert len(steps) == 5
    for step in steps:
        assert set(step) == {"label", "state", "sigma", "psi", "clock"}
    # The streamed text is `trace_json`'s, also for an empty run.
    for n in (0, 1, 5):
        assert main(["run", files["pingpong"], "--steps", str(n), "--seed", "1", "--json"]) == 0
        trace = run_random(parse(PINGPONG), n, 1)
        assert capsys.readouterr().out == trace_json(trace) + "\n"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_run_streams_its_steps(tmp_path, flags):
    # A contract that only ticks runs as long as asked; each step is
    # printed as it is taken, so memory stays flat.
    path = tmp_path / "e.stipula"
    path.write_text("stipula E { init Q }")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["run", str(path), "--steps", "20000", *flags]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000


def test_run_into_a_closed_pipe_exits_zero():
    # As in `mustipula run pingpong.stipula --steps 200000 | head -2`: the
    # reader closes stdout after two lines, long before the run ends.
    proc = subprocess.Popen(
        [sys.executable, "-m", "mustipula.cli", "run",
         str(REPO / "contracts" / "pingpong.stipula"), "--steps", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert all(line.endswith(b"\n") for line in lines)
    assert (proc.returncode, stderr) == (0, b"")


def test_interrupt_exits_130_with_one_line(files, capsys, monkeypatch):
    def interrupted(args):
        print("partial output")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_unreachable", interrupted)
    try:
        code = main(["unreachable", files["sample"]])
    except KeyboardInterrupt:
        # Escaping, it would stop the whole pytest run, not fail one test.
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(files, capsys, monkeypatch, enabled):
    # A command runs with the cyclic collector paused; on exit 0, 2 and 130
    # it is back on only if it was on before.
    bad = files["dir"] / "bad.stipula"
    bad.write_text("stipula { init Q }\n")
    seen = []

    def interrupted(args):
        seen.append(gc.isenabled())
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_unreachable", interrupted)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in (
            (["parse", files["sample"]], 0),
            (["parse", str(bad)], 2),
            (["unreachable", files["sample"]], 130),
        ):
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_run_text_mode_deterministic(files, capsys):
    assert main(["run", files["sample"], "--steps", "8", "--seed", "4", "--mode", "tickplus"]) == 0
    first = capsys.readouterr().out
    assert main(["run", files["sample"], "--steps", "8", "--seed", "4", "--mode", "tickplus"]) == 0
    assert capsys.readouterr().out == first


def test_reach_reachable(files, capsys):
    code = main(
        ["reach", files["pingpong"], "--state", "Q3",
         "--max-configs", "10000", "--max-clock", "100", "--max-psi", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "REACHABLE"
    witness = out.splitlines()[1]
    for label in ("call:ping", "ev:4", "call:pong"):
        assert label in witness


def test_reach_unknown_exit_one(files, capsys):
    assert main(["reach", files["sample"], "--state", "End"]) == 1
    assert capsys.readouterr().out == "UNKNOWN (exhausted: 6 configurations, no limit hit)\n"
    assert main(["reach", files["sample"], "--state", "End", "--max-configs", "3"]) == 1
    assert capsys.readouterr().out == "UNKNOWN (limit: configs)\n"


def test_decide_event_unreachable(files, capsys):
    assert main(["decide", files["sample"], "--event", "4"]) == 0
    assert capsys.readouterr().out == "UNREACHABLE\n"


def test_decide_states(files, capsys):
    assert main(["decide", files["sample"], "--state", "Run"]) == 0
    assert capsys.readouterr().out == "REACHABLE\n"
    assert main(["decide", files["sample"], "--state", "Go"]) == 0
    assert capsys.readouterr().out == "REACHABLE\n"


def test_decide_and_reach_on_an_undeclared_state(files, capsys):
    # A state is declared by use: `decide` proves a name the contract never
    # mentions unreachable, while `reach` only exhausts its search.
    assert main(["decide", files["sample"], "--state", "Nope"]) == 0
    assert capsys.readouterr().out == "UNREACHABLE\n"
    assert main(["reach", files["sample"], "--state", "Nope"]) == 1
    assert capsys.readouterr().out == "UNKNOWN (exhausted: 6 configurations, no limit hit)\n"

def test_decide_not_di_exit_three(files, capsys):
    assert main(["decide", files["pingpong"], "--state", "Q3"]) == 3
    assert "NotDI" in capsys.readouterr().err


def test_unreachable_table(files, capsys):
    assert main(["unreachable", files["sample"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "Go ev_4 End: unreachable" in lines
    assert "Init f Run: reachable" in lines
    assert "Init g Go: reachable" in lines


def test_unreachable_json(files, capsys):
    assert main(["unreachable", files["pingpong"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {entry["verdict"] for entry in payload} == {"reachable"}
    assert all("witness" in entry for entry in payload)


def test_unreachable_mode_tickplus(files, capsys):
    # PingPong is not DI, so the forward search answers.  Under tick-plus no
    # time passes in the event source Q1, so ev_4 never falls due.  An
    # unknown verdict makes the exit code 1.
    assert main(["unreachable", files["pingpong"], "--mode", "tickplus"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "Q0 ping Q1: reachable" in lines
    assert "Q1 ev_4 Q2: unknown" in lines
    assert "Q2 pong Q3: unknown" in lines


def test_encode_minsky_roundtrip(files, capsys):
    out = files["dir"] / "enc.stipula"
    assert main(["encode-minsky", files["machine"], "--fragment", "ta", "-o", str(out)]) == 0
    assert main(["classify", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fragments: TA"


def test_encode_minsky_stdout(files, capsys):
    assert main(["encode-minsky", files["machine"], "--fragment", "d", "-o", "-"]) == 0
    assert "@_start fstart {" in capsys.readouterr().out


def test_minsky_run_output(files, capsys):
    assert main(["minsky-run", files["machine"], "--fuel", "10"]) == 0
    assert capsys.readouterr().out == "Halted(0,1,3)\n"


def test_minsky_run_out_of_fuel(files, capsys):
    loops = files["dir"] / "loop.minsky"
    loops.write_text("init Q0\nfinal QF\nQ0: inc r1 Q1\nQ1: inc r1 Q0\n")
    assert main(["minsky-run", str(loops), "--fuel", "7"]) == 0
    assert capsys.readouterr().out == "OutOfFuel\n"


def test_negative_steps_and_fuel_exit_two(files, capsys):
    for argv in (["run", files["sample"], "--steps", "-3"],
                 ["minsky-run", files["machine"], "--fuel", "-5"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("fragment", ["i", "ta", "d"])
def test_encode_minsky_rejects_non_identifier_state(files, capsys, fragment):
    assert main(["encode-minsky", files["dash"], "--fragment", fragment, "-o", "-"]) == 2
    assert capsys.readouterr() == ("", "error: state name 'q-1' is not an identifier\n")


def test_minsky_run_accepts_non_identifier_state(files, capsys):
    assert main(["minsky-run", files["dash"]]) == 0
    assert capsys.readouterr().out == "Halted(1,0,1)\n"


def test_minsky_parse_error_exit_two(files, capsys):
    bad = files["dir"] / "bad.minsky"
    bad.write_text("init Q0\nfinal QF\nQ0: inc r3 QF\n")
    assert main(["minsky-run", str(bad)]) == 2


def test_minsky_run_without_final_line_exits_two(files, capsys):
    bad = files["dir"] / "nofinal.minsky"
    bad.write_text("init Q0\nQ0: inc r1 QF\n")
    assert main(["minsky-run", str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: machine needs one 'init' and one 'final' line\n")


def test_decide_unknown_event_line(files, capsys):
    assert main(["decide", files["sample"], "--event", "9"]) == 2
    assert "no event declared" in capsys.readouterr().err


def test_unknown_flag_rejected(files):
    with pytest.raises(SystemExit) as err:
        main(["classify", files["sample"], "--bogus"])
    assert err.value.code == 2


def test_one_parser_serves_every_call(files, capsys, monkeypatch):
    # The parser is built once per process; each call still gets its own
    # flags and defaults, the handler in place at call time and argparse's
    # exit 2.
    cli._build_parser.cache_clear()
    assert main(["parse", "--json", files["sample"]]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "Sample"
    assert main(["parse", files["sample"]]) == 0
    assert capsys.readouterr().out == render(parse(SAMPLE))
    assert main(["run", files["pingpong"], "--steps", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["run", files["pingpong"]]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20
    seen = []
    monkeypatch.setattr(cli, "_cmd_classify", lambda args: seen.append(args.file) or 0)
    assert main(["classify", files["sample"]]) == 0
    assert seen == [files["sample"]]
    for argv in (["parse"], ["frobnicate"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("usage: mustipula")
    assert cli._build_parser.cache_info().misses == 1


def readme_examples() -> list[tuple[list[str], str]]:
    """Each `$ mustipula ...` command in README.md, with the output shown
    under it up to the next blank line or code fence."""
    examples, output = [], None
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("$ mustipula "):
            output = []
            examples.append((shlex.split(line)[2:], output))
        elif not line or line.startswith("```"):
            output = None
        elif output is not None:
            output.append(line + "\n")
    return [(argv, "".join(output)) for argv, output in examples]


def test_readme_examples(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    examples = readme_examples()
    assert len(examples) >= 6
    for argv, expected in examples:
        if "-o" in argv:
            out = argv.index("-o") + 1
            argv[out] = str(tmp_path / pathlib.Path(argv[out]).name)
        main(argv)
        assert capsys.readouterr().out == expected, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "contracts/pingpong.stipula"],
        ["parse", "contracts/sample.stipula", "--json"],
        ["classify", "contracts/sample.stipula"],
        ["encode-minsky", "contracts/countdown.minsky", "--fragment", "d", "-o", "-"],
    ],
)
def test_byte_order_mark_is_ignored(tmp_path, capsys, argv):
    source = REPO / argv[1]
    marked = tmp_path / source.name
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    assert main([argv[0], str(source), *argv[2:]]) == 0
    plain = capsys.readouterr()
    assert main([argv[0], str(marked), *argv[2:]]) == 0
    assert capsys.readouterr() == plain


def test_byte_order_mark_keeps_error_columns(tmp_path, capsys):
    for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
        path = tmp_path / f"{name}.stipula"
        path.write_text("stipula { init Q }\n", encoding=encoding)
        assert main(["parse", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: expected a contract name, found '{' (line 1, column 9)\n"
        )


# ---------------------------------------------------------------------------
# JSON writers: each writes the bytes of `json.dumps` of its payload
# ---------------------------------------------------------------------------


def compact(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def writer_contracts() -> dict:
    contracts = {
        name: parse(text)
        for name, text in (("pingpong", PINGPONG), ("sample", SAMPLE), ("chain", CHAIN), ("empty", EMPTY))
    }
    for fragment in ("i", "ta", "d"):
        for n in (1, 12):
            contracts[f"{fragment}{n}"] = mu.encode(inc_chain(n), fragment)
    contracts["odd"] = odd_names()
    return contracts


def test_contract_writer_matches_its_payload(tmp_path, capsys):
    for name, contract in writer_contracts().items():
        assert cli._contract_json(contract) == compact(contract_payload(contract)), name
        if name == "odd":  # its names are not identifiers, so it has no text
            continue
        path = tmp_path / f"{name}.stipula"
        path.write_text(render(contract))
        assert main(["parse", str(path), "--json"]) == 0
        assert capsys.readouterr().out == compact(contract_payload(parse(render(contract)))) + "\n"


def test_step_writer_matches_its_payload():
    odd = odd_names()
    big = PendingSet([PendingEvent(300, 10**20, "\u00e9", "\\"), PendingEvent(0, 4, 'Q"0', "Q\x07\n2")])
    traces = [
        Trace(()),
        Trace((TraceStep(Label("call", name='x"\\'), Configuration(odd, 'Q"0', Body(big, "t"), big, 10**30)),)),
    ]
    for contract in (parse(PINGPONG), odd):
        for mode in mu.Mode:
            for seed in (0, 1):
                traces.append(run_random(contract, 1500, seed, mode))
    seen = set()
    for trace in traces:
        assert trace_json(trace) == compact(trace_payload(trace))
        assert list(step_texts(trace.steps, Quoted())) == [compact(step_payload(s)) for s in trace.steps]
        for label, cfg in trace.steps:
            text = label.text()
            escaped = json.dumps(text) != '"' + text + '"'
            seen.add("sigma None" if cfg.sigma is None else f"sigma events {bool(cfg.sigma.events)}")
            seen.add(f"psi {bool(cfg.psi)}")
            seen.add(f"clock above 256 {cfg.clock > 256}")
            seen.add(f"escaped label {escaped}")
    assert trace_json(Trace(())) == "[]"
    assert seen == {
        "sigma None", "sigma events False", "sigma events True", "psi False", "psi True",
        "clock above 256 False", "clock above 256 True", "escaped label False", "escaped label True",
    }


def test_verdict_writer_matches_its_payload(tmp_path, capsys):
    limits = mu.ExplorationLimits(20_000, 200, 6)
    cases = [(parse(PINGPONG), mode) for mode in mu.Mode] + [(parse(SAMPLE), mu.Mode.TICK), (odd_names(), mu.Mode.TICK)]
    cases += [(mu.encode(inc_chain(3), fragment), mu.Mode.TICK) for fragment in ("i", "ta", "d")]
    seen = set()
    for contract, mode in cases:
        verdicts = list(mu.unreachable_clauses(contract, limits, mode).items())
        assert verdicts_json(verdicts) == compact([verdict_payload(c, v) for c, v in verdicts]), contract.name
        seen |= {(v.status, v.witness is not None) for _, v in verdicts}
    assert verdicts_json([]) == "[]"
    assert seen == {("reachable", True), ("reachable", False), ("unreachable", False), ("unknown", False)}
    # The CLI writes its sorted verdicts with the same writer.
    for text in (PINGPONG, SAMPLE):
        path = tmp_path / "c.stipula"
        path.write_text(text)
        main(["unreachable", str(path), "--json"])
        verdicts = sorted(
            mu.unreachable_clauses(parse(text)).items(),
            key=lambda item: (item[0].kind, item[0].label, item[0].source),
        )
        assert capsys.readouterr().out == compact([verdict_payload(c, v) for c, v in verdicts]) + "\n"
