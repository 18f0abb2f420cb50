"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _hermetic_cache(tmp_path, monkeypatch):
    """Keep CLI runs (which cache by default) out of ~/.cache/repro."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "run-cache"))


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nope"])


def test_cli_run_prints_table(capsys):
    rc = main(["run", "--n", "24", "--peers", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "single run" in out
    assert "iters/task" in out


def test_cli_run_with_churn(capsys):
    rc = main(["run", "--n", "24", "--peers", "3", "--disconnections", "1",
               "--seed", "2"])
    assert rc == 0
    assert "disc" in capsys.readouterr().out


def test_cli_ablation_overlap(capsys):
    rc = main(["ablation", "overlap"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A3" in out and "overlap" in out


def test_cli_ablation_bootstrap(capsys):
    rc = main(["ablation", "bootstrap"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A4" in out


def test_cli_run_csv_export(tmp_path, capsys):
    target = tmp_path / "run.csv"
    rc = main(["run", "--n", "24", "--peers", "3", "--csv", str(target)])
    assert rc == 0
    text = target.read_text()
    assert text.startswith("n,size,peers")
    assert "24,576,3" in text


def test_cli_trace_writes_jsonl(tmp_path, capsys):
    import json

    target = tmp_path / "run.jsonl"
    rc = main(["trace", "--n", "24", "--peers", "3", "--disconnections", "1",
               "--seed", "2", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 0
    assert f"wrote" in captured.out and str(target) in captured.out
    assert "events" in captured.err
    lines = target.read_text().splitlines()
    assert lines
    categories = {json.loads(line)["category"] for line in lines}
    assert {"des", "net", "rmi", "p2p"} <= categories


def test_cli_trace_writes_chrome(tmp_path, capsys):
    import json

    target = tmp_path / "run.json"
    rc = main(["trace", "--n", "24", "--peers", "3", "--seed", "0",
               "--chrome", str(target)])
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["traceEvents"]
    assert any(rec["ph"] == "i" for rec in doc["traceEvents"])


def test_cli_report(capsys):
    rc = main(["report", "--n", "24", "--peers", "3", "--disconnections", "1",
               "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "run report" in out
    assert "converged: True" in out
    assert "trace events:" in out


def test_cli_report_markdown(capsys):
    rc = main(["report", "--n", "24", "--peers", "3", "--seed", "0",
               "--markdown"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# Run report" in out
    assert "| metric | value |" in out


def test_cli_run_populates_cache_and_cache_stats(tmp_path, capsys):
    cache_dir = tmp_path / "cli-cache"
    args = ["--n", "24", "--peers", "3", "--cache-dir", str(cache_dir)]
    assert main(["run", *args]) == 0
    capsys.readouterr()

    rc = main(["cache", "stats", "--cache-dir", str(cache_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "entries: 1" in out
    assert str(cache_dir) in out

    rc = main(["cache", "clear", "--cache-dir", str(cache_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "removed 1 cached run(s)" in out
    main(["cache", "stats", "--cache-dir", str(cache_dir)])
    assert "entries: 0" in capsys.readouterr().out


def test_cli_run_no_cache_writes_nothing(tmp_path, capsys):
    cache_dir = tmp_path / "cli-cache"
    rc = main(["run", "--n", "24", "--peers", "3", "--no-cache",
               "--cache-dir", str(cache_dir)])
    assert rc == 0
    assert not list(cache_dir.glob("*.run.json")) if cache_dir.exists() else True


def test_cli_run_workers_flag_parses(capsys):
    # workers > 1 with a single spec falls back to in-process execution
    rc = main(["run", "--n", "24", "--peers", "3", "--workers", "2",
               "--no-cache"])
    assert rc == 0
    assert "single run" in capsys.readouterr().out


def test_cli_timeline(capsys):
    rc = main(["timeline", "--n", "40", "--peers", "4",
               "--disconnections", "1", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "slot_filled" in out
    assert "legend" in out.lower() or "A=assigned" in out
    assert "converged: True" in out


def test_every_sweep_subcommand_shares_the_exec_flags():
    """--workers/--cache-dir/--no-cache are one parent parser, everywhere."""
    parser = build_parser()
    cases = [
        ["run", "--n", "24"],
        ["figure7"],
        ["iterations"],
        ["syncasync"],
        ["ablation", "overlap"],
        ["faults", "run", "churn-burst"],
    ]
    for base in cases:
        args = parser.parse_args(
            base + ["--workers", "4", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True


def test_cli_faults_list(capsys):
    rc = main(["faults", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "perfect-storm" in out
    assert "superpeer_crash" in out


def test_cli_faults_run_quick(capsys):
    rc = main(["faults", "run", "perfect-storm", "--quick", "--no-cache"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault scenario" in out
    assert "faults" in out and "corrupted" in out


def test_cli_faults_run_report(capsys):
    rc = main(["faults", "run", "superpeer-outage", "--quick", "--no-cache",
               "--report"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault history:" in out
    assert "superpeer_crash" in out


def test_cli_faults_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["faults", "run", "nope"])


def test_every_run_subcommand_shares_the_policy_flags():
    """--checkpoint-count and --checkpoint-frequency are one parent parser."""
    parser = build_parser()
    cases = [
        ["run", "--n", "24"],
        ["figure7"],
        ["iterations"],
        ["syncasync"],
        ["faults", "run", "churn-burst"],
    ]
    for base in cases:
        args = parser.parse_args(
            base + ["--checkpoint-count", "2", "--checkpoint-frequency", "3"]
        )
        assert args.checkpoint_count == 2
        assert args.checkpoint_frequency == 3


def test_policy_from_flags_builds_the_right_policy():
    from repro.checkpoint import FixedPolicy
    from repro.cli import _policy_from

    parser = build_parser()
    assert _policy_from(parser.parse_args(["run"])) == FixedPolicy()
    args = parser.parse_args(["run", "--checkpoint-count", "7"])
    assert _policy_from(args) == FixedPolicy(count=7)
    args = parser.parse_args(["run", "--checkpoint-frequency", "3"])
    assert _policy_from(args) == FixedPolicy(frequency=3)
    args = parser.parse_args(["run", "--checkpoint-count", "7",
                              "--checkpoint-frequency", "3"])
    assert _policy_from(args) == FixedPolicy(count=7, frequency=3)


def test_cli_run_with_checkpoint_flags(capsys):
    rc = main(["run", "--n", "24", "--peers", "3", "--no-cache",
               "--checkpoint-count", "4", "--checkpoint-frequency", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "single run" in out


def test_cli_faults_list_shows_requirements(capsys):
    rc = main(["faults", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "poisoned-channel" in out
    assert "requires: reject_corruption=True" in out
    assert "requires: gossip=True, standby=True" in out
