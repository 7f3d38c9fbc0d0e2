"""Unit tests for the BENCH_<rev>.json benchmark log."""

import json

import pytest

from repro.experiments import benchlog


@pytest.fixture(autouse=True)
def _isolated_records():
    benchlog.reset()
    yield
    benchlog.reset()


class TestRecord:
    def test_record_accumulates_and_rounds(self):
        rec = benchlog.record("figQ", wall_s=1.23456789, tasks=420)
        assert rec.wall_s == 1.2346
        assert rec.tasks == 420
        assert rec.scale == "bench"
        assert benchlog.RECORDS == [rec]

    def test_reset_clears(self):
        benchlog.record("fig3", 0.5, 10)
        benchlog.reset()
        assert benchlog.RECORDS == []


class TestWrite:
    def test_nothing_recorded_writes_nothing(self, tmp_path):
        assert benchlog.write(tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    def test_file_name_and_payload(self, tmp_path):
        benchlog.record("figQ", 2.0, 300, scale="smoke")
        benchlog.record("fig3", 1.0, 100)
        path = benchlog.write(tmp_path, revision="abc1234")
        assert path == tmp_path / "BENCH_abc1234.json"
        data = json.loads(path.read_text())
        assert data["revision"] == "abc1234"
        # records sorted by experiment name
        assert [r["experiment"] for r in data["records"]] == ["fig3", "figQ"]
        assert data["experiments"] == ["fig3", "figQ"]
        assert data["total_wall_s"] == 3.0
        assert data["total_tasks"] == 400
        assert data["records"][1]["scale"] == "smoke"

    def test_default_revision_comes_from_git(self, tmp_path):
        benchlog.record("figO", 1.0, 50)
        path = benchlog.write(tmp_path)  # tmp_path is not a git checkout
        assert path.name == "BENCH_unknown.json"


def _payload(**walls):
    return {
        "revision": "test",
        "records": [
            {"experiment": name, "wall_s": wall, "tasks": 1, "scale": "bench"}
            for name, wall in walls.items()
        ],
    }


class TestCompare:
    def test_within_threshold_is_ok(self):
        result = benchlog.compare(
            _payload(figC=1.0, figQ=2.0), _payload(figC=1.2, figQ=1.9)
        )
        assert result.ok
        assert result.regressions == ()

    def test_regression_above_threshold_fails(self):
        result = benchlog.compare(_payload(figC=1.0), _payload(figC=1.3))
        assert not result.ok
        assert [r.experiment for r in result.regressions] == ["figC"]
        assert result.rows[0].ratio == pytest.approx(1.3)

    def test_exactly_at_threshold_is_ok(self):
        result = benchlog.compare(_payload(figC=1.0), _payload(figC=1.25))
        assert result.ok

    def test_custom_threshold(self):
        result = benchlog.compare(
            _payload(figC=1.0), _payload(figC=1.2), threshold=0.1
        )
        assert not result.ok

    def test_new_and_retired_experiments_never_regress(self):
        result = benchlog.compare(
            _payload(figOld=1.0), _payload(figNew=100.0)
        )
        assert result.ok
        by_name = {r.experiment: r for r in result.rows}
        assert by_name["figNew"].old_wall_s is None
        assert by_name["figOld"].new_wall_s is None
        assert by_name["figNew"].ratio is None

    def test_duplicate_records_accumulate(self):
        old = {
            "records": [
                {"experiment": "figC", "wall_s": 0.5, "tasks": 1, "scale": "bench"},
                {"experiment": "figC", "wall_s": 0.5, "tasks": 1, "scale": "bench"},
            ]
        }
        result = benchlog.compare(old, _payload(figC=1.0))
        assert result.rows[0].old_wall_s == pytest.approx(1.0)
        assert result.ok

    def test_zero_old_wall_never_divides(self):
        result = benchlog.compare(_payload(figC=0.0), _payload(figC=1.0))
        assert result.rows[0].ratio is None
        assert result.ok

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            benchlog.compare(_payload(), _payload(), threshold=-0.1)

    def test_table_names_the_regression(self):
        result = benchlog.compare(
            _payload(figC=1.0, figQ=1.0), _payload(figC=2.0, figQ=1.0)
        )
        table = benchlog.format_table(result)
        assert "REGRESSED" in table
        assert "figC" in table and "figQ" in table
        assert "1 regression(s) above 25%: figC" in table

    def test_clean_table_says_so(self):
        table = benchlog.format_table(
            benchlog.compare(_payload(figC=1.0), _payload(figC=1.0))
        )
        assert "no wall-time regression above 25%" in table


class TestCompareCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _payload(figC=1.0))
        new = self._write(tmp_path, "new.json", _payload(figC=1.1))
        assert benchlog.main(["compare", str(old), str(new)]) == 0
        assert "figC" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _payload(figC=1.0))
        new = self._write(tmp_path, "new.json", _payload(figC=2.0))
        assert benchlog.main(["compare", str(old), str(new)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        old = self._write(tmp_path, "old.json", _payload(figC=1.0))
        new = self._write(tmp_path, "new.json", _payload(figC=1.4))
        assert benchlog.main(
            ["compare", str(old), str(new), "--threshold", "0.5"]
        ) == 0


class TestGitRevision:
    def test_outside_a_checkout_is_unknown(self, tmp_path):
        assert benchlog.git_revision(tmp_path) == "unknown"

    def test_inside_this_checkout_is_short_hex(self):
        rev = benchlog.git_revision(".")
        base = rev.removesuffix("-dirty")
        assert rev == "unknown" or (4 <= len(base) <= 16 and base.isalnum())

    @staticmethod
    def _init_repo(tmp_path):
        import subprocess

        def git(*args):
            subprocess.run(
                ["git", *args], cwd=tmp_path, check=True,
                capture_output=True,
                env={
                    "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                    "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                    "HOME": str(tmp_path), "PATH": "/usr/bin:/bin:/usr/local/bin",
                },
            )

        git("init", "-q")
        (tmp_path / "f.txt").write_text("x\n")
        git("add", "f.txt")
        git("commit", "-q", "-m", "seed")
        return git

    def test_clean_checkout_has_no_dirty_suffix(self, tmp_path):
        self._init_repo(tmp_path)
        rev = benchlog.git_revision(tmp_path)
        assert rev != "unknown"
        assert not rev.endswith("-dirty")

    def test_dirty_checkout_is_stamped(self, tmp_path):
        self._init_repo(tmp_path)
        clean = benchlog.git_revision(tmp_path)
        (tmp_path / "f.txt").write_text("edited\n")
        assert benchlog.git_revision(tmp_path) == f"{clean}-dirty"

    def test_emission_time_stamping_follows_head(self, tmp_path):
        """The revision is read when write() runs, not cached earlier."""
        git = self._init_repo(tmp_path)
        first = benchlog.git_revision(tmp_path)
        (tmp_path / "f.txt").write_text("second\n")
        git("commit", "-q", "-am", "second")
        second = benchlog.git_revision(tmp_path)
        benchlog.record("figH", 1.0, 1)
        path = benchlog.write(tmp_path)
        assert path is not None
        assert first not in path.name
        assert path.name == f"BENCH_{second}.json"
