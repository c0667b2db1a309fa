"""Cold start: a fresh interpreter serves the paper's method without scipy.

HAQJSK needs only numpy; scipy serves the baselines that solve a linear
assignment (QJSK-AL, SPEGK, ASK) and the BFS behind
``Graph.shortest_path_lengths``, which import it on their first call.
A fresh interpreter imports ``repro``, builds every registered kernel,
imports every CLI entry module, computes an HAQJSK(D) Gram and trains and
serves a bundle from a ``dir:`` store with no ``scipy`` module loaded.
Then the two scipy paths run in that interpreter and must give the values
the same calls give in this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import ExecutionContext, Session
from repro.datasets import load_dataset

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import repro
from repro import ExecutionContext, KernelSpec, Session
from repro.datasets import load_dataset
from repro.kernels import registered_kernels
import repro.campaign.cli
import repro.distributed.worker
import repro.experiments.runner
import repro.serve.cli
from repro.serve import PredictionService

session = Session(ExecutionContext())
for name in registered_kernels():
    session.kernel(KernelSpec(name))
dataset = load_dataset("MUTAG", scale=0.1, seed=0)
spec = KernelSpec("HAQJSK(D)", n_prototypes=4, n_levels=2)
session.gram(spec, dataset.graphs)
with tempfile.TemporaryDirectory() as root:
    stored = Session(ExecutionContext(store="dir:" + root))
    stored.train(spec, dataset, c=10.0, name="tiny")
    labels = PredictionService.from_store(stored.ctx.store, "tiny").predict(
        dataset.graphs[:4]
    ).labels
loaded = scipy_modules()

hops = [g.shortest_path_lengths().tolist() for g in dataset.graphs]
aligned = session.gram("QJSK-AL", dataset.graphs[:5])
print(json.dumps({
    "loaded": loaded,
    "labels": labels.tolist(),
    "hops": hops,
    "aligned": aligned.tobytes().hex(),
    "used": bool(scipy_modules()),
}))
"""


def test_fresh_interpreter_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    out = json.loads(completed.stdout)
    assert out["loaded"] == []
    assert len(out["labels"]) == 4
    assert out["used"], "the BFS and QJSK-AL calls should have imported scipy"

    graphs = load_dataset("MUTAG", scale=0.1, seed=0).graphs
    assert out["hops"] == [g.shortest_path_lengths().tolist() for g in graphs]
    aligned = Session(ExecutionContext()).gram("QJSK-AL", graphs[:5])
    assert bytes.fromhex(out["aligned"]) == aligned.tobytes()
