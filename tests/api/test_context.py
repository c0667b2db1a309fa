"""ExecutionContext: env resolution, validation, records, ``ctx=`` as the
only per-call execution selector."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.api import ExecutionContext, KernelSpec, Session
from repro.api.context import (
    ENGINE_ENV_VAR,
    ENTROPY_ENV_VAR,
    PRECISION_ENV_VAR,
    STORE_ENV_VAR,
    TILE_ENV_VAR,
    as_context,
)
from repro.backend import ComputePolicy
from repro.engine import BatchedEngine, MemmapSink, SerialEngine
from repro.errors import ValidationError
from repro.graphs import generators as gen
from repro.store import ArtifactStore

ENV_VARS = (
    ENGINE_ENV_VAR, TILE_ENV_VAR, STORE_ENV_VAR, PRECISION_ENV_VAR,
    ENTROPY_ENV_VAR,
)


class TestConstruction:
    def test_defaults(self):
        ctx = ExecutionContext()
        assert ctx.engine is None
        assert ctx.store is None
        assert ctx.sink_factory is None
        assert ctx.tile_checkpoint is True
        assert ctx.normalize is None and ctx.ensure_psd is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionContext().engine = "serial"

    def test_replace_returns_new(self):
        ctx = ExecutionContext()
        other = ctx.replace(engine="serial")
        assert ctx.engine is None and other.engine == "serial"

    def test_bad_tile_size(self):
        with pytest.raises(ValidationError, match="tile_size"):
            ExecutionContext(tile_size=0)

    def test_sink_instance_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="sink_factory"):
            ExecutionContext(sink_factory=MemmapSink(str(tmp_path / "x.npy")))

    def test_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENGINE_ENV_VAR, "serial")
        monkeypatch.setenv(TILE_ENV_VAR, "7")
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        ctx = ExecutionContext.from_env()
        assert ctx.engine == "serial"
        assert ctx.tile_size == 7
        assert isinstance(ctx.store, ArtifactStore)
        # Overrides win over the environment.
        assert ExecutionContext.from_env(engine="batched").engine == "batched"

    def test_from_env_empty(self, monkeypatch):
        for var in ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert ExecutionContext.from_env() == ExecutionContext()

    def test_from_env_bad_tile(self, monkeypatch):
        monkeypatch.setenv(TILE_ENV_VAR, "many")
        with pytest.raises(ValidationError, match=TILE_ENV_VAR):
            ExecutionContext.from_env()


class TestValidate:
    def test_store_and_sink_conflict(self, tmp_path):
        ctx = ExecutionContext(
            store=ArtifactStore(str(tmp_path / "s")),
            sink_factory=lambda: None,
        )
        with pytest.raises(ValidationError, match="not.*both"):
            ctx.validate()

    def test_ensure_psd_out_of_core(self, tmp_path):
        sink = MemmapSink(str(tmp_path / "g.npy"))
        with pytest.raises(ValidationError, match="ensure_psd.*sink"):
            ExecutionContext().validate(ensure_psd=True, sink=sink)

    def test_ensure_psd_policy_field(self, tmp_path):
        sink = MemmapSink(str(tmp_path / "g.npy"))
        ctx = ExecutionContext(ensure_psd=True)
        with pytest.raises(ValidationError, match="offending fields"):
            ctx.validate(sink=sink)

    def test_in_memory_sink_allowed(self):
        from repro.engine import DenseSink

        ctx = ExecutionContext()
        assert ctx.validate(ensure_psd=True, sink=DenseSink()) is ctx

    def test_clean_context_passes(self):
        ctx = ExecutionContext(engine="batched", tile_size=16)
        assert ctx.validate() is ctx


class TestPolicy:
    def test_explicit_wins(self):
        ctx = ExecutionContext(normalize=True)
        assert ctx.policy(False, "normalize", True) is False

    def test_context_fills_none(self):
        ctx = ExecutionContext(normalize=True)
        assert ctx.policy(None, "normalize", False) is True

    def test_default_when_unset(self):
        ctx = ExecutionContext()
        assert ctx.policy(None, "normalize", True) is True
        assert ctx.policy(None, "ensure_psd", False) is False


class TestResolvedEngine:
    def test_named(self):
        engine = ExecutionContext(engine="serial").resolved_engine()
        assert type(engine) is SerialEngine
        assert engine.tile_size == SerialEngine.default_tile
        assert engine.policy is None

    def test_default(self):
        engine = ExecutionContext().resolved_engine()
        assert type(engine) is BatchedEngine
        assert engine.tile_size == 64
        assert engine.policy is None  # the ambient policy shows through

    def test_tile_override(self):
        engine = ExecutionContext(engine="batched", tile_size=9).resolved_engine()
        assert isinstance(engine, BatchedEngine)
        assert engine.tile_size == 9

    def test_instance_copied_and_untouched(self):
        fast = ComputePolicy(precision="float32")
        base = BatchedEngine(tile_size=64, policy=fast)
        resolved = ExecutionContext(engine=base, tile_size=5).resolved_engine()
        assert resolved is not base
        assert resolved.tile_size == 5
        assert base.tile_size == 64  # the original is untouched
        # A context without compute fields keeps the instance's policy.
        assert resolved.policy is fast
        kept = ExecutionContext(engine=base).resolved_engine()
        assert kept is not base
        assert (kept.tile_size, kept.policy) == (64, fast)

    def test_policy_set_only_by_compute_fields(self):
        engine = ExecutionContext(precision="float32").resolved_engine()
        assert engine.policy == ComputePolicy(precision="float32")


class TestEnvironmentEntersOnce:
    """With all five ``REPRO_*`` variables set, what is built from the
    environment follows it, and an explicit context means its fields."""

    GRAPHS = [
        gen.cycle_graph(6),
        gen.path_graph(7),
        gen.star_graph(8),
        gen.barabasi_albert(10, 2, seed=0),
        gen.cycle_graph(9),
    ]
    SPEC = KernelSpec("HAQJSK(D)", {"n_prototypes": 8, "n_levels": 2, "seed": 0})

    def test_all_five_variables(self, monkeypatch, tmp_path):
        for var in ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        reference = self.SPEC.make().gram(self.GRAPHS)
        configured = self.SPEC.make().gram(
            self.GRAPHS,
            ctx=ExecutionContext(
                engine="process", tile_size=3, precision="float32",
                entropy="auto",
            ),
        )
        assert configured.tobytes() != reference.tobytes()

        monkeypatch.setenv(ENGINE_ENV_VAR, "process")
        monkeypatch.setenv(TILE_ENV_VAR, "3")
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
        monkeypatch.setenv(PRECISION_ENV_VAR, "float32")
        monkeypatch.setenv(ENTROPY_ENV_VAR, "auto")
        from_env = ExecutionContext.from_env()
        session = Session()
        followed = {
            "from_env": self.SPEC.make().gram(self.GRAPHS, ctx=from_env),
            "Session()": session.gram(self.SPEC, self.GRAPHS),
        }
        for name, gram in followed.items():
            assert np.asarray(gram).tobytes() == configured.tobytes(), name
        defaults = {
            "ctx=None": self.SPEC.make().gram(self.GRAPHS),
            "ExecutionContext()": self.SPEC.make().gram(
                self.GRAPHS, ctx=ExecutionContext()
            ),
        }
        for name, gram in defaults.items():
            assert gram.tobytes() == reference.tobytes(), name

        assert session.ctx.to_record() == from_env.to_record()
        assert from_env.to_record()["store"] == str(tmp_path / "store")
        engine = from_env.resolved_engine()
        assert (engine.name, engine.tile_size) == ("process", 3)
        assert engine.policy.describe() == "float32/auto"


class TestRecord:
    def test_round_trip(self, tmp_path):
        ctx = ExecutionContext(
            engine="process",
            tile_size=32,
            store=ArtifactStore(str(tmp_path / "arts")),
            normalize=True,
        )
        record = ctx.to_record()
        rebuilt = ExecutionContext.from_record(record)
        assert rebuilt.to_record() == record
        assert rebuilt.engine == "process"
        assert rebuilt.tile_size == 32
        assert rebuilt.store.root == ctx.store.root
        assert rebuilt.normalize is True

    def test_record_is_json_able(self):
        import json

        record = ExecutionContext(engine="serial").to_record()
        assert json.loads(json.dumps(record)) == record

    def test_engine_instance_recorded_by_name(self):
        record = ExecutionContext(engine=BatchedEngine()).to_record()
        assert record["engine"] == "batched"

    def test_sink_factory_refused_in_record(self):
        record = ExecutionContext(sink_factory=lambda: None).to_record()
        assert record["sink"] is not None
        with pytest.raises(ValidationError, match="sink"):
            ExecutionContext.from_record(record)

    def test_unknown_keys_refused(self):
        with pytest.raises(ValidationError, match="unexpected"):
            ExecutionContext.from_record({"engine": None, "bogus": 1})


class TestRecordMigration:
    """Records written while contexts had an array-backend field."""

    #: A context record as written before the field was removed.
    PARENT_RECORD = {
        "engine": "batched",
        "tile_size": 16,
        "store": None,
        "sink": None,
        "tile_checkpoint": True,
        "normalize": True,
        "ensure_psd": None,
        "backend": "numpy",
        "precision": "float32",
        "entropy": "auto",
    }

    def test_parent_record_rebuilds_the_same_context(self):
        rebuilt = ExecutionContext.from_record(dict(self.PARENT_RECORD))
        assert rebuilt == ExecutionContext(
            engine="batched", tile_size=16, normalize=True,
            precision="float32", entropy="auto",
        )
        expected = {k: v for k, v in self.PARENT_RECORD.items() if k != "backend"}
        assert rebuilt.to_record() == expected

    def test_other_backend_refused(self):
        record = dict(self.PARENT_RECORD, backend="torch")
        with pytest.raises(ValidationError, match="'torch'"):
            ExecutionContext.from_record(record)


class TestAsContext:
    def test_none_is_the_default_context(self):
        assert as_context(None, owner="x") == ExecutionContext()

    def test_ctx_passthrough(self):
        ctx = ExecutionContext(engine="serial")
        assert as_context(ctx, owner="x") is ctx

    def test_non_context_refused_with_owner(self):
        with pytest.raises(ValidationError, match="x: ctx must be an"):
            as_context("serial", owner="x")


def _entry_points():
    """The pipeline entry points, each with the execution knob names it
    must not take as keywords (they belong on the context)."""
    from repro.experiments.table4 import evaluate_cell, run_table4
    from repro.kernels.base import FeatureMapKernel, GraphKernel, PairwiseKernel
    from repro.ml.cross_validation import cross_validate_graph_kernel
    from repro.ml.nystrom import NystromApproximation, nystrom_gram
    from repro.serve import PredictionService, train_bundle
    from repro.store import IncrementalGram

    knobs = {"engine", "sink", "store", "tile_checkpoint"}
    entries = [
        (GraphKernel.gram, knobs),
        (GraphKernel.gram_extend, knobs),
        (FeatureMapKernel.cross_gram, knobs),
        (PairwiseKernel.cross_gram, knobs),
        (NystromApproximation.__init__, knobs),
        (nystrom_gram, knobs),
        (cross_validate_graph_kernel, knobs),
        (train_bundle, knobs),
        (IncrementalGram.__init__, knobs),
        (PredictionService.__init__, knobs),
        # from_store's positional ``store`` names where the bundle lives.
        (PredictionService.from_store, knobs - {"store"}),
        (evaluate_cell, knobs),
        (run_table4, knobs),
    ]
    return [pytest.param(f, loose, id=f.__qualname__) for f, loose in entries]


class TestOneWayIn:
    """``ctx=`` is the only per-call execution selector."""

    @pytest.mark.parametrize("entry, loose", _entry_points())
    def test_entry_point_takes_ctx_and_no_loose_knob(self, entry, loose):
        params = set(inspect.signature(entry).parameters)
        assert "ctx" in params
        assert not loose & params

    def test_kernels_carry_no_engine(self):
        from repro.kernels import make, registered_kernels

        for name in registered_kernels():
            assert not hasattr(make(name), "engine"), name
