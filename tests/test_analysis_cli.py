"""The ``python -m repro.analysis`` CLI: exit codes, formats, self-check.

The self-check is the CI wiring the tentpole asks for: the analyzer runs
over every shipped example and app with zero findings required (also
exposed as ``make lint``).
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent

VIOLATION = """\
from repro import Runtime, Future

rt = Runtime(num_cores=2)
never = Future("never")
g = rt.dataflow(lambda x: x, [never])
rt.async_(lambda: 1)
rt.run()
print(g.value)
"""

CLEAN = """\
from repro import Runtime

rt = Runtime(num_cores=2)
parts = [rt.async_(lambda i=i: i) for i in range(4)]
total = rt.dataflow(lambda *xs: sum(xs), parts)
rt.run()
print(total.value)
"""


def test_exit_one_on_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "TG105" in out and "TG102" in out
    assert f"{bad}:4:" in out  # file:line anchors


def test_exit_zero_on_clean_file(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text(CLEAN)
    assert main([str(good)]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_json_format_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    rules = {f["rule"] for f in payload["findings"]}
    assert "TG105" in rules
    first = payload["findings"][0]
    assert set(first) >= {"rule", "severity", "message", "file", "line", "col"}


def test_select_and_ignore_filter_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    assert main([str(bad), "--select", "TG105"]) == 1
    out = capsys.readouterr().out
    assert "TG105" in out and "TG102" not in out
    assert main([str(bad), "--ignore", "TG105,TG102"]) == 0


def test_select_and_ignore_are_prefix_matched(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    # 'TG' selects the whole static-lint family
    assert main([str(bad), "--select", "TG"]) == 1
    out = capsys.readouterr().out
    assert "TG105" in out and "TG102" in out
    # a prefix matching only runtime-reported families filters lint out
    assert main([str(bad), "--select", "PF"]) == 0
    assert main([str(bad), "--ignore", "TG"]) == 0
    # prefix and exact entries compose
    assert main([str(bad), "--ignore", "TG10"]) == 0


def test_min_severity_threshold(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    assert main([str(bad), "--min-severity", "error"]) == 1
    out = capsys.readouterr().out
    assert "TG105" in out and "TG102" not in out  # TG102 is a warning


def test_list_rules_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "TG101", "TG102", "TG103", "TG104", "TG105", "TG106",
        "GA201", "DC301", "PF401", "PF407",
    ):
        assert rule_id in out


def test_no_paths_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_rule_id_is_usage_error(tmp_path, capsys):
    # A typo'd --select must not silently report "clean".
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    assert main([str(bad), "--select", "TG999"]) == 2
    assert "unknown rule ID: TG999" in capsys.readouterr().err
    assert main([str(bad), "--ignore", "TG102,TGXX"]) == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["/nonexistent/nope.py"]) == 2


def test_directory_expansion(tmp_path, capsys):
    (tmp_path / "a.py").write_text(CLEAN)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text(VIOLATION)
    assert main([str(tmp_path)]) == 1
    assert "2 file(s)" in capsys.readouterr().out


def test_module_entrypoint_runs(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    env_path = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(bad)],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": env_path,
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 1
    assert "TG105" in proc.stdout


# -- the CI self-check -------------------------------------------------------------


@pytest.mark.parametrize("target", ["examples", "src/repro/apps"])
def test_shipped_workloads_are_lint_clean(target, capsys):
    """Every shipped example and app must pass the analyzer with 0 findings."""
    assert main([str(REPO / target)]) == 0, capsys.readouterr().out
