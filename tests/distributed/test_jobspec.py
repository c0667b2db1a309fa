"""Tests for job specs: the coordinator↔worker contract."""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.errors import DistributedError
from repro.graphs import generators as gen
from repro.store import ArtifactStore
from repro.distributed import JobSpec, job_spec_for, load_job, seed_job
from repro.distributed.jobspec import tile_computer


@pytest.fixture
def graphs():
    return [
        gen.cycle_graph(6),
        gen.path_graph(7),
        gen.star_graph(7),
        gen.random_tree(8, seed=3),
        gen.complete_graph(5),
    ]


@pytest.fixture
def ctx():
    return ExecutionContext(engine="batched", tile_size=2)


class TestJobSpec:
    def test_record_roundtrip(self, graphs, ctx):
        spec = job_spec_for("WLSK", graphs, ctx=ctx)
        again = JobSpec.from_record(spec.to_record())
        assert again == spec
        assert again.job_id == spec.job_id

    def test_resolution_pins_schedule(self, graphs, ctx):
        spec = job_spec_for("WLSK", graphs, ctx=ctx)
        assert spec.engine == "batched"
        assert spec.tile_size == 2
        assert spec.n_graphs == len(graphs)
        # Compute policy resolves to the reference defaults here.
        assert spec.precision == "float64"
        assert spec.entropy == "eig"

    def test_job_id_depends_on_schedule(self, graphs, ctx):
        a = job_spec_for("WLSK", graphs, ctx=ctx)
        b = job_spec_for("WLSK", graphs, ctx=ctx.replace(tile_size=3))
        assert a.job_id != b.job_id

    def test_normalize_flag_carried(self, graphs, ctx):
        spec = job_spec_for("WLSK", graphs, ctx=ctx, normalize=True)
        assert spec.normalize is True
        assert spec.job_id != job_spec_for("WLSK", graphs, ctx=ctx).job_id

    def test_version_mismatch_refused(self, graphs, ctx):
        record = job_spec_for("WLSK", graphs, ctx=ctx).to_record()
        record["version"] = "job-v0"
        with pytest.raises(DistributedError, match="version"):
            JobSpec.from_record(record)

    def test_malformed_record_refused(self, graphs, ctx):
        with pytest.raises(DistributedError):
            JobSpec.from_record("not a dict")
        record = job_spec_for("WLSK", graphs, ctx=ctx).to_record()
        with pytest.raises(DistributedError, match="malformed"):
            JobSpec.from_record({"version": record["version"], "surprise": 1})

    def test_v2_record_carries_no_backend(self, graphs, ctx):
        record = job_spec_for("WLSK", graphs, ctx=ctx).to_record()
        assert record["version"] == "job-v2"
        assert "backend" not in record
        record["backend"] = "numpy"
        with pytest.raises(DistributedError, match="malformed"):
            JobSpec.from_record(record)

    def test_v1_record_with_backend_refused(self, graphs, ctx):
        # A record written while job specs still carried the array-backend
        # field: its version names the old layout, so it is refused with
        # the version message rather than half-read.
        record = job_spec_for("WLSK", graphs, ctx=ctx).to_record()
        record.update(version="job-v1", backend="numpy")
        with pytest.raises(DistributedError, match="job-v1"):
            JobSpec.from_record(record)

    def test_dense_replay_kernels_refused(self, graphs, ctx):
        # Core variants recompute the full matrix before any tile
        # streams — distributing their "tiles" would be a lie.
        with pytest.raises(DistributedError, match="tile"):
            job_spec_for("CORE WL", graphs, ctx=ctx)

    def test_materialisation(self, graphs, ctx):
        spec = job_spec_for("WLSK", graphs, ctx=ctx)
        kernel = spec.build_kernel()
        assert kernel.name == "WLSK"
        engine = spec.resolved_engine()
        assert engine.name == "batched"
        assert engine.tile_size == 2
        assert spec.plan().n_tiles() == 6


class TestSeedAndLoad:
    def test_roundtrip(self, graphs, ctx):
        store = ArtifactStore("mem:seed-roundtrip")
        spec = job_spec_for("WLSK", graphs, ctx=ctx)
        job_id = seed_job(store, spec, graphs)
        assert job_id == spec.job_id
        loaded_spec, loaded_graphs = load_job(store, job_id)
        assert loaded_spec == spec
        assert len(loaded_graphs) == len(graphs)

    def test_seed_is_idempotent(self, graphs, ctx):
        store = ArtifactStore("mem:seed-idem")
        spec = job_spec_for("WLSK", graphs, ctx=ctx)
        assert seed_job(store, spec, graphs) == seed_job(store, spec, graphs)

    def test_seed_refuses_wrong_collection(self, graphs, ctx):
        store = ArtifactStore("mem:seed-wrong")
        spec = job_spec_for("WLSK", graphs, ctx=ctx)
        with pytest.raises(DistributedError, match="graphs"):
            seed_job(store, spec, graphs[:-1])
        shuffled = [graphs[-1]] + graphs[:-1]
        with pytest.raises(DistributedError, match="digest"):
            seed_job(store, spec, shuffled)

    def test_load_unknown_job_is_named_error(self):
        store = ArtifactStore("mem:seed-unknown")
        with pytest.raises(DistributedError, match="no job"):
            load_job(store, "f" * 64)


class TestTileComputer:
    def test_feature_map_blocks(self, graphs, ctx):
        spec = job_spec_for("WLSK", graphs, ctx=ctx)
        kernel = spec.build_kernel()
        compute = tile_computer(kernel, graphs, spec.resolved_engine())
        features = np.asarray(kernel.feature_matrix(graphs), dtype=float)
        block = compute((0, 2), (2, 4), False)
        assert np.array_equal(block, features[0:2] @ features[2:4].T)
        diag = compute((0, 2), (0, 2), True)
        assert np.array_equal(diag, diag.T)

    def test_pairwise_blocks_match_engine(self, graphs, ctx):
        spec = job_spec_for("QJSK", graphs, ctx=ctx)
        kernel = spec.build_kernel()
        engine = spec.resolved_engine()
        compute = tile_computer(kernel, graphs, engine)
        states = kernel._prepared_states(graphs)
        expected = engine.compute_tile(kernel, states[0:2], states[2:4], False)
        assert np.array_equal(compute((0, 2), (2, 4), False), expected)
