"""End-to-end prediction serving: train → persist → predict — and HTTP.

The missing last mile between the paper's protocol and the ROADMAP's
serving north-star. :func:`train_bundle` fits the full pipeline (Gram →
inductive :class:`~repro.ml.kernel_utils.GramConditioner` → one-vs-one
C-SVM) on a training collection; the resulting :class:`ModelBundle` is a
picklable value object persisted through the content-addressed
:class:`~repro.store.ArtifactStore`; a :class:`PredictionService` —
possibly in a different process, days later — loads it, verifies its
content digests, and classifies newcomer batches by evaluating only the
``(ΔN, N)`` cross block against the training graphs on any engine
backend.

The conditioning contract is the load-bearing piece: serving applies the
*training-fold* centering/scale statistics to newcomer rows (inductive),
never fresh statistics of the cross block (transductive) — the latter
silently disagrees with the Gram the SVM was trained on. See the module
docstring of :mod:`repro.ml.kernel_utils`.

Networked serving lives in :mod:`repro.serve.server`: a stdlib threaded
HTTP server whose :class:`~repro.serve.batcher.MicroBatcher` predicts a
request at once when idle and coalesces the requests that arrive during
a predict into the next cross-block evaluation — the engine is far
cheaper per graph on big ``(ΔN, N)`` rectangles — and whose training
jobs (``POST /train``) live in its sqlite
:class:`~repro.serve.jobs.JobTable`.

CLI: ``python -m repro.serve {train,predict,info,serve}``.
"""

from repro.serve.batcher import BatchedPrediction, MicroBatcher
from repro.serve.bundle import BUNDLE_KIND, ModelBundle, bundle_key, train_bundle
from repro.serve.server import ServeApp, ServeServer, make_server
from repro.serve.service import PredictionResult, PredictionService

__all__ = [
    "BUNDLE_KIND",
    "BatchedPrediction",
    "MicroBatcher",
    "ModelBundle",
    "PredictionResult",
    "PredictionService",
    "ServeApp",
    "ServeServer",
    "bundle_key",
    "make_server",
    "train_bundle",
]
