"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import PROTOCOLS, WORKLOADS, _parse_crashes, main


def test_run_default(capsys):
    code = main(["run", "--crash", "20:1", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle: OK" in out
    assert "Damani-Garg" in out


def test_run_every_protocol(capsys):
    for name in PROTOCOLS:
        code = main(
            ["run", "--protocol", name, "--crash", "25:1",
             "--horizon", "70", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0, f"{name}: {out}"


def test_run_every_workload(capsys):
    for name in WORKLOADS:
        code = main(["run", "--workload", name, "--horizon", "50"])
        assert code == 0, name
        capsys.readouterr()


def test_run_with_timeline(capsys):
    code = main(["run", "--crash", "20:1", "--timeline",
                 "--timeline-limit", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "--- timeline ---" in out
    assert "t=" in out


def test_figures_command(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "figure 1: verified" in out
    assert "figure 5: verified" in out


def test_table1_command(capsys):
    assert main(["table1", "--seeds", "0"]) == 0
    out = capsys.readouterr().out
    assert "Damani-Garg" in out
    assert "paper" not in out or True
    assert "Strom-Yemini" in out


def test_overhead_command(capsys):
    assert main(["overhead", "--crash", "15:1"]) == 0
    out = capsys.readouterr().out
    assert "piggyback entries/msg : 4.0" in out
    assert "failures              : 1" in out


def test_trace_command(tmp_path, capsys):
    out_path = tmp_path / "trace.jsonl"
    code = main(["trace", "quickstart", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "dg.tokens_broadcast" in out
    assert "overhead (Section 6.9)" in out
    import json

    records = [
        json.loads(line) for line in out_path.read_text().splitlines()
    ]
    assert records[0]["type"] == "meta"
    assert any(r["type"] == "counter" for r in records)


def test_trace_command_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "failure-free"]) == 0
    capsys.readouterr()
    assert (tmp_path / "trace_failure-free.jsonl").exists()


def test_trace_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["trace", "no-such-scenario"])


def test_crash_spec_parsing():
    plan = _parse_crashes(["10:1", "20:2:5.0"])
    assert plan is not None
    assert plan.events[0].time == 10.0 and plan.events[0].pid == 1
    assert plan.events[0].downtime == 2.0
    assert plan.events[1].downtime == 5.0
    assert _parse_crashes([]) is None


def test_bad_crash_spec_exits():
    with pytest.raises(SystemExit):
        _parse_crashes(["nonsense"])


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
