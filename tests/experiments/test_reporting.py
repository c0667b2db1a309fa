"""Tests for report formatting."""

import os

from repro.experiments.reporting import bold_best, format_table, save_report


class TestFormatTable:
    def test_basic_render(self):
        table = format_table([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = table.splitlines()
        assert lines[0].startswith("| a")
        assert len(lines) == 4

    def test_missing_cells_dash(self):
        table = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "-" in table.splitlines()[2]

    def test_float_formatting(self):
        table = format_table([{"value": 3.14159}])
        assert "3.14" in table and "3.14159" not in table

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_explicit_column_order(self):
        table = format_table([{"b": 1, "a": 2}], columns=["a", "b"])
        header = table.splitlines()[0]
        assert header.index("a") < header.index("b")


class TestSaveReport:
    def test_writes_file(self, tmp_path):
        path = save_report("test", "hello", directory=str(tmp_path))
        assert os.path.isfile(path)
        with open(path) as f:
            assert f.read() == "hello\n"

    def test_creates_directory(self, tmp_path):
        target = os.path.join(str(tmp_path), "nested")
        save_report("x", "y", directory=target)
        assert os.path.isdir(target)


class TestBoldBest:
    def test_bolds_maximum(self):
        rows = [{"k": "a", "acc": 80.0}, {"k": "b", "acc": 90.0}]
        bold_best(rows, ["acc"])
        assert rows[1]["acc"] == "**90.00**"
        assert rows[0]["acc"] == 80.0

    def test_minimum_mode(self):
        rows = [{"t": 1.0}, {"t": 2.0}]
        bold_best(rows, ["t"], larger_is_better=False)
        assert rows[0]["t"] == "**1.00**"

    def test_ignores_non_numeric(self):
        rows = [{"acc": "n/a"}, {"acc": 5.0}]
        bold_best(rows, ["acc"])
        assert rows[0]["acc"] == "n/a"


class TestReportOutput:
    def test_is_a_string_carrying_failures(self):
        from repro.experiments.reporting import ReportOutput

        plain = ReportOutput("| table |")
        assert plain == "| table |" and plain.failed == ()
        failed = ReportOutput("| table |", failed=[("cell:a", "boom")])
        assert failed.failed == (("cell:a", "boom"),)

    def test_runner_exit_code_reflects_failed_cells(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro.experiments import runner
        from repro.experiments.reporting import ReportOutput

        monkeypatch.chdir(tmp_path)  # save_report writes ./results
        bad = ReportOutput(
            "| partial |",
            failed=(("cell:X:Y", "Traceback ...\nValueError: bad cell"),),
        )
        monkeypatch.setitem(runner._EXPERIMENTS, "fake", lambda argv, store: bad)
        assert runner.main(["fake"]) == 1
        err = capsys.readouterr().err
        assert "1 cells failed" in err
        assert "cell:X:Y: ValueError: bad cell" in err

        good = ReportOutput("| full |")
        monkeypatch.setitem(runner._EXPERIMENTS, "fake", lambda argv, store: good)
        assert runner.main(["fake"]) == 0

    def test_store_flag_leaves_the_environment_alone(self, monkeypatch, tmp_path):
        """``--store`` reaches the experiment and the report footer as an
        argument; no later ``ExecutionContext.from_env()`` inherits it."""
        from repro.api import ExecutionContext
        from repro.experiments import runner
        from repro.experiments.config import execution_context
        from repro.experiments.reporting import ReportOutput

        monkeypatch.chdir(tmp_path)  # save_report writes ./results
        monkeypatch.delenv("REPRO_STORE", raising=False)
        address = str(tmp_path / "store")
        seen = []

        def fake(argv, store):
            seen.append((argv, execution_context(store).to_record()["store"]))
            return ReportOutput("| ok |")

        monkeypatch.setitem(runner._EXPERIMENTS, "fake", fake)
        environment = dict(os.environ)
        assert runner.main(["fake", "--store", address, "--seed", "1"]) == 0
        assert dict(os.environ) == environment
        assert ExecutionContext.from_env().store is None
        assert seen == [(["--seed", "1"], address)]
        footer = (tmp_path / "results" / "fake.md").read_text().splitlines()[-1]
        assert f"artifact_store: {address}," in footer
