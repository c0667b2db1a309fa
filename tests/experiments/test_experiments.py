"""Integration tests for the experiment modules (tiny configurations)."""

import numpy as np
import pytest

from repro.experiments import complexity, figure2, properties, table2
from repro.experiments.reporting import format_table
from repro.experiments.runner import main as runner_main, run_table3


class TestTable2:
    def test_rows_cover_requested_datasets(self):
        rows = table2.run_table2(scale=0.05, size_scale=0.2, seed=0,
                                 names=["MUTAG", "IMDB-B"])
        assert [r["Dataset"] for r in rows] == ["MUTAG", "IMDB-B"]

    def test_paper_columns_present(self):
        rows = table2.run_table2(scale=0.05, size_scale=0.2, seed=0,
                                 names=["MUTAG"])
        row = rows[0]
        assert row["Graphs (paper)"] == 188
        assert row["Classes"] == 2
        assert row["Labels"] == 7

    def test_means_close_to_paper_at_full_size(self):
        rows = table2.run_table2(scale=0.1, size_scale=1.0, seed=0,
                                 names=["MUTAG", "PTC"])
        for row in rows:
            ratio = row["Mean V (ours)"] / row["Mean V (paper)"]
            assert 0.75 < ratio < 1.25, row["Dataset"]


class TestProperties:
    @pytest.fixture(scope="class")
    def rows(self):
        return properties.run_properties(
            seed=0, kernels=("HAQJSK(A)", "HAQJSK(D)", "QJSK", "WLSK")
        )

    def test_haqjsk_psd_and_invariant(self, rows):
        for row in rows:
            if row["Kernel"].startswith("HAQJSK"):
                assert float(row["min Gram eig"]) > -1e-7
                assert float(row["Perm. dev"]) < 1e-9
                assert row["Transitive"] == "Yes"

    def test_qjsk_not_invariant(self, rows):
        qjsk = next(r for r in rows if r["Kernel"] == "QJSK")
        assert float(qjsk["Perm. dev"]) > 1e-9

    def test_wlsk_invariant_but_untransitive(self, rows):
        wlsk = next(r for r in rows if r["Kernel"] == "WLSK")
        assert float(wlsk["Perm. dev"]) < 1e-9
        assert wlsk["Transitive"] == "-"


class TestFigure2:
    def test_levels_shrink(self):
        result = figure2.run_figure2(n_prototypes=8, n_levels=3, seed=0)
        sizes = [row["Prototypes |P^h|"] for row in result["levels"]]
        assert sizes == sorted(sizes, reverse=True)

    def test_ascii_plot_contains_marks(self):
        result = figure2.run_figure2(n_prototypes=8, n_levels=2, seed=0)
        assert "#" in result["ascii"]
        assert "." in result["ascii"]

    def test_inertia_grows_with_level(self):
        """Fewer prototypes cannot fit the points better."""
        result = figure2.run_figure2(n_prototypes=8, n_levels=3, seed=0)
        inertias = [row["Inertia"] for row in result["levels"]]
        assert inertias[0] <= inertias[-1] + 1e-9


class TestComplexity:
    def test_slopes_polynomial(self):
        result = complexity.run_complexity(
            vertex_sweep=(10, 16, 24), graph_sweep=(8, 16, 32), seed=0
        )
        # Preparation is linear in N; the pairwise QJSD stage is the
        # paper's quadratic term. Tiny sweeps are noisy, so only sane
        # polynomial ranges are asserted (the full-size sweep in
        # results/complexity.md measures ~1.1 and ~2.2).
        assert 0.5 < result["graph_prepare_slope"] < 2.0
        assert 1.2 < result["graph_pairwise_slope"] < 3.5
        assert result["vertex_slope"] < 4.0

    def test_timings_positive(self):
        result = complexity.run_complexity(
            vertex_sweep=(10, 14), graph_sweep=(4, 6), seed=0
        )
        for row in result["vertex_rows"] + result["graph_rows"]:
            assert row["total s"] > 0

    def test_stage_split_sums_to_total(self):
        stages = complexity.time_gram_stages(6, 12, seed=0)
        assert stages["total"] == pytest.approx(
            stages["prepare"] + stages["pairwise"]
        )


class TestRunner:
    def test_table3_contains_all_kernels(self):
        output = run_table3()
        for name in ("HAQJSK(A)", "QJSK", "WLSK", "PMGK"):
            assert name in output

    def test_usage_on_unknown(self, capsys):
        code = runner_main(["definitely_not_an_experiment"])
        assert code == 2
        assert "usage" in capsys.readouterr().out

    def test_help(self, capsys):
        assert runner_main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1"],
            ["table4", "--datasets", "MUTAG", "--kernels", "QJSK", "--repeats", "1"],
        ],
    )
    def test_footer_names_the_engine_that_ran(self, argv, monkeypatch, tmp_path):
        import dataclasses
        import functools

        from repro.engine import GramEngine
        from repro.experiments import config

        ran = []
        execute = GramEngine.execute

        def spy(engine, *args, **kwargs):
            ran.append(engine.name)
            return execute(engine, *args, **kwargs)

        monkeypatch.setattr(GramEngine, "execute", spy)
        # Small enough for tier-1: two table1 kernels, a fifth of MUTAG.
        monkeypatch.setattr(
            properties,
            "run_properties",
            functools.partial(properties.run_properties, kernels=("QJSK", "WLSK")),
        )
        monkeypatch.setitem(
            config.SCALED,
            "MUTAG",
            dataclasses.replace(config.SCALED["MUTAG"], scale=0.2),
        )
        for var in ("REPRO_GRAM_TILE", "REPRO_STORE"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("REPRO_GRAM_ENGINE", "serial")
        monkeypatch.chdir(tmp_path)  # save_report writes ./results
        assert runner_main(argv) == 0
        report = (tmp_path / "results" / f"{argv[0]}.md").read_text()
        assert report.splitlines()[-1].startswith("_gram_engine: serial,")
        assert ran and set(ran) == {"serial"}


class TestTable4Cell:
    def test_single_cell_smoke(self):
        from repro.experiments.table4 import cells_to_rows, evaluate_cell

        cell = evaluate_cell("WLSK", "MUTAG", seed=0, n_repeats=1)
        assert 0.0 <= cell["accuracy"] <= 100.0
        assert cell["paper"] == pytest.approx(82.88)
        rows = cells_to_rows([cell])
        assert rows[0]["Kernel"] == "WLSK"
        assert "MUTAG" in rows[0]


class TestTable5Cell:
    def test_embedding_model_cell(self):
        from repro.experiments.table5 import evaluate_cell

        cell = evaluate_cell("DGK", "MUTAG", seed=0, n_repeats=1)
        assert 0.0 <= cell["accuracy"] <= 100.0

    def test_trained_model_cell(self):
        from repro.experiments.table5 import evaluate_cell

        cell = evaluate_cell("DCNN", "MUTAG", seed=0, n_repeats=1, n_epochs=5)
        assert 0.0 <= cell["accuracy"] <= 100.0
