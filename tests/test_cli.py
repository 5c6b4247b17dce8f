import json

import pytest

from mustipula.cli import main

from helpers import CHAIN, MACHINES, PINGPONG, SAMPLE


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


def test_minsky_parse_error_exit_two(files, capsys):
    bad = files["dir"] / "bad.minsky"
    bad.write_text("init Q0\nfinal QF\nQ0: inc r3 QF\n")
    assert main(["minsky-run", str(bad)]) == 2


def test_decide_unknown_event_line(files, capsys):
    assert main(["decide", files["sample"], "--event", "9"]) == 2
    assert "no event declared" in capsys.readouterr().err


def test_unknown_flag_rejected(files):
    with pytest.raises(SystemExit) as err:
        main(["classify", files["sample"], "--bogus"])
    assert err.value.code == 2
