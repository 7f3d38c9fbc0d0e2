"""The ``python -m repro.verify`` CLI: fuzz, shrunk reproducers, replay."""

import json
import pathlib
import subprocess
import sys

from repro.verify.cli import main
from repro.verify.spec import generate_spec

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_fuzz_clean_seeds_exit_zero(tmp_path, capsys):
    assert main(["fuzz", "--seeds", "0:3", "--out", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out
    assert "3 spec(s), 0 failing" in out
    assert "all parity invariants held" in out
    assert not (tmp_path / "r").exists()  # no reproducers on a clean run


def test_fuzz_plant_writes_shrunk_reproducer(tmp_path, capsys):
    out_dir = tmp_path / "r"
    assert (
        main(
            ["fuzz", "--seeds", "4", "--plant", "thread", "--out", str(out_dir)]
        )
        == 1
    )
    assert "DIVERGENCE" in capsys.readouterr().out
    payload = json.loads((out_dir / "reproducer-4.json").read_text())
    assert payload["planted"] == "thread"
    assert payload["shrunk_size"] < payload["original_size"]
    assert payload["shrunk_size"] <= 4  # a <= 4-task reproducer
    assert any(f["rule"] == "PF407" for f in payload["findings"])


def test_replay_reproducer_reapplies_the_plant_deterministically(
    tmp_path, capsys
):
    out_dir = tmp_path / "r"
    main(["fuzz", "--seeds", "4", "--plant", "thread", "--out", str(out_dir)])
    capsys.readouterr()
    path = str(out_dir / "reproducer-4.json")
    assert main(["replay", path]) == 1
    first = capsys.readouterr().out
    assert main(["replay", path]) == 1
    second = capsys.readouterr().out
    assert first == second  # bit-identical replay, finding text included
    assert "PF407" in first


def test_replay_accepts_a_bare_spec_and_exits_clean(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(generate_spec(1).to_json())
    assert main(["replay", str(spec_file)]) == 0
    assert "clean" in capsys.readouterr().out


def test_budget_exhaustion_is_reported_not_silent(capsys):
    assert main(["fuzz", "--seeds", "0:5", "--budget-s", "0"]) == 0
    out = capsys.readouterr().out
    assert "budget exhausted" in out
    assert "NOT checked" in out


def test_list_invariants_prints_the_pf4xx_catalogue(capsys):
    assert main(["list-invariants"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("PF401", "PF402", "PF403", "PF404", "PF405", "PF406", "PF407"):
        assert rule_id in out


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["replay", str(tmp_path / "missing.json")]) == 2
    assert main(["fuzz", "--seeds", "9:9"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"spec": {"patterns": ["nope"]}}')
    assert main(["replay", str(bad)]) == 2


def test_module_entrypoint_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.verify", "fuzz", "--seeds", "0:2",
         "--out", str(tmp_path / "r")],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(REPO / "src"),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0
    assert "all parity invariants held" in proc.stdout
