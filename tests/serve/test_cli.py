"""Tests for the ``python -m repro.serve`` command-line interface."""

from __future__ import annotations

import io
import json
import sys

import numpy as np
import pytest

from repro.serve.cli import main


@pytest.fixture(scope="module")
def trained_store(tmp_path_factory):
    """One trained WLSK bundle shared by the CLI tests (fast, no freeze)."""
    root = str(tmp_path_factory.mktemp("cli") / "store")
    code = main([
        "train", "--store", root, "--name", "cli-bundle",
        "--dataset", "MUTAG", "--scale", "0.15", "--seed", "0",
        "--kernel", "WLSK", "--c", "10",
    ])
    assert code == 0
    return root


class TestTrain:
    def test_train_reports_bundle(self, trained_store, capsys):
        code = main([
            "train", "--store", trained_store, "--name", "cli-bundle-2",
            "--dataset", "MUTAG", "--scale", "0.15", "--seed", "0",
            "--kernel", "WLSK", "--c", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bundle: cli-bundle-2" in out
        assert "train accuracy:" in out

    def test_train_freezes_haqjsk(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        code = main([
            "train", "--store", root, "--name", "frozen",
            "--dataset", "MUTAG", "--scale", "0.1", "--seed", "0",
            "--kernel", "HAQJSK(D)", "--prototypes", "8", "--c", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "HAQJSK(D)" in out

    def test_missing_store_is_actionable(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit, match="store"):
            main(["info", "--name", "whatever"])


class TestPredict:
    def test_labels_one_per_line(self, trained_store, capsys):
        code = main([
            "predict", "--store", trained_store, "--name", "cli-bundle",
            "--dataset", "MUTAG", "--scale", "0.08", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        labels = [int(line) for line in out.strip().splitlines()]
        assert len(labels) == 15  # MUTAG at scale 0.08
        assert set(labels) <= {0, 1}

    def test_json_output_has_margins(self, trained_store, capsys):
        code = main([
            "predict", "--store", trained_store, "--name", "cli-bundle",
            "--dataset", "MUTAG", "--scale", "0.08", "--seed", "7",
            "--limit", "4", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bundle"] == "cli-bundle"
        assert len(payload["labels"]) == 4
        assert np.asarray(payload["margins"]).shape == (4, 2)

    def test_deterministic_across_invocations(self, trained_store, capsys):
        args = [
            "predict", "--store", trained_store, "--name", "cli-bundle",
            "--dataset", "MUTAG", "--scale", "0.08", "--seed", "7",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestInfo:
    def test_info_prints_identities(self, trained_store, capsys):
        code = main(["info", "--store", trained_store, "--name", "cli-bundle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kernel_fingerprint:" in out
        assert "training_digest:" in out
        assert "classes: [0, 1]" in out

    def test_info_json_is_machine_readable(self, trained_store, capsys):
        code = main([
            "info", "--store", trained_store, "--name", "cli-bundle", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["kernel_fingerprint"]) == 64
        assert len(payload["training_digest"]) == 64
        assert payload["classes"] == [0, 1]

    def test_info_reports_support_graphs(self, trained_store, capsys):
        """|S| sits beside the training-graph count in both outputs, so
        the per-newcomer pair cost reads off a stored bundle."""
        from repro.serve.bundle import ModelBundle
        from repro.store import ArtifactStore

        bundle = ModelBundle.load(ArtifactStore(trained_store), "cli-bundle")
        support = int(bundle.support.size)
        assert 0 < support <= bundle.n_training_graphs
        main(["info", "--store", trained_store, "--name", "cli-bundle"])
        lines = capsys.readouterr().out.splitlines()
        assert f"support_graphs: {support}" in lines
        keys = [line.split(":", 1)[0] for line in lines]
        assert keys.index("support_graphs") == keys.index("n_training_graphs") + 1
        main(["info", "--store", trained_store, "--name", "cli-bundle", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["support_graphs"] == support
        assert payload["n_training_graphs"] == bundle.n_training_graphs

    def test_info_json_matches_server_document(self, trained_store, capsys):
        """The CLI --json document IS the server's /info body (minus the
        server-runtime section) — one formatter, two transports."""
        from repro.serve.server import ServeApp

        main(["info", "--store", trained_store, "--name", "cli-bundle", "--json"])
        cli_payload = json.loads(capsys.readouterr().out)
        app = ServeApp(trained_store, default_bundle="cli-bundle", jobs_db=":memory:")
        try:
            status, http_payload, _ = app.handle("GET", "/info", {}, None)
        finally:
            app.close()
        assert status == 200
        for key, value in cli_payload.items():
            assert http_payload[key] == value


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone (``info | grep -q``): writes raise."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("command", [
        ["info"],
        ["predict", "--dataset", "MUTAG", "--scale", "0.08", "--seed", "7"],
    ])
    def test_stops_quietly_when_the_reader_closes_stdout(
        self, command, trained_store, monkeypatch, capsys
    ):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main([
            command[0], "--store", trained_store, "--name", "cli-bundle",
            *command[1:],
        ])
        assert code == 1
        assert capsys.readouterr().err == ""


class TestServeAppClock:
    def test_injected_clock_drives_uptime(self, trained_store):
        """The serve app and its job queue share one injectable clock."""
        from repro.serve.server import ServeApp

        now = [1000.0]
        app = ServeApp(
            trained_store,
            default_bundle="cli-bundle",
            jobs_db=":memory:",
            clock=lambda: now[0],
        )
        try:
            status, payload, _ = app.handle("GET", "/healthz", {}, None)
            assert status == 200
            assert payload["uptime_seconds"] == 0.0
            now[0] += 12.5
            _, payload, _ = app.handle("GET", "/healthz", {}, None)
            assert payload["uptime_seconds"] == 12.5
        finally:
            app.close()


class TestServeParser:
    def test_serve_flags_parse(self):
        from repro.serve.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--store", "mem:x", "--bundle", "b",
            "--no-batching", "--max-batch-graphs", "32",
            "--max-queue-graphs", "128", "--port", "0",
        ])
        assert args.batching is False
        assert args.max_batch_graphs == 32
        assert args.max_queue_graphs == 128
        assert args.bundle == "b"
        assert args.func.__name__ == "_command_serve"
        assert build_parser().parse_args(["serve"]).batching is True
