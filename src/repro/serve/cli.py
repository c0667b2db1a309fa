"""``python -m repro.serve`` — train, predict, and inspect model bundles.

Three subcommands close the train→persist→predict loop from the shell:

* ``train``   — build a dataset (synthetic registry surrogate or an
  on-disk TU-format directory), construct a Table IV kernel, freeze it on
  the training collection when needed (HAQJSK), fit the serving pipeline
  (:func:`repro.serve.train_bundle`) and persist the bundle in an
  artifact store.
* ``predict`` — load the named bundle in a *fresh process*, classify a
  batch of newcomer graphs, and print one label per line (or a JSON
  document with OvO margins).
* ``info``    — print the bundle's content identities and configuration.

Every subcommand takes ``--store`` (defaulting to ``$REPRO_STORE``), so a
training box and a serving box meet at a shared directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.utils.logging import get_logger

_LOGGER = get_logger("serve.cli")


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help=(
            "artifact-store address: a directory path, dir:/path, or "
            "mem:name (default: $REPRO_STORE)"
        ),
    )
    parser.add_argument("--name", required=True, help="bundle name in the store")


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="MUTAG",
        help="registry dataset name, or the TU dataset name with --tu-dir",
    )
    parser.add_argument(
        "--tu-dir", default=None,
        help="directory holding a TU-format dataset (overrides the registry)",
    )
    parser.add_argument("--scale", type=float, default=0.25,
                        help="registry dataset scale (ignored with --tu-dir)")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset seed (ignored with --tu-dir)")
    parser.add_argument("--limit", type=int, default=None,
                        help="use only the first LIMIT graphs")


def _context(args):
    """The CLI's execution context: the ``REPRO_*`` environment, then the
    ``--store`` and ``--engine`` flags. A store is required."""
    from repro.api import ExecutionContext

    ctx = ExecutionContext.from_env()
    if args.store:
        ctx = ctx.replace(store=args.store)
    if getattr(args, "engine", None):
        ctx = ctx.replace(engine=args.engine)
    if ctx.store is None:
        raise SystemExit(
            "no artifact store configured: pass --store ADDRESS or set "
            "REPRO_STORE"
        )
    return ctx


def _session(args):
    """The CLI's :class:`repro.Session` over :func:`_context`."""
    from repro.api import Session

    return Session(_context(args))


def _load_graphs(args) -> tuple:
    """``(graphs, targets)`` from the registry or a TU directory."""
    if args.tu_dir:
        from repro.datasets import load_tu_directory

        dataset = load_tu_directory(args.tu_dir, args.dataset)
    else:
        from repro.datasets import load_dataset

        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    graphs, targets = dataset.graphs, dataset.targets
    if args.limit is not None:
        graphs, targets = graphs[: args.limit], targets[: args.limit]
    return graphs, targets


def _kernel_spec(args):
    """The declarative spec the CLI flags describe.

    Flags that the named kernel does not accept (``--prototypes`` on a
    feature-map kernel) are dropped, matching the old zoo's leniency.
    """
    from repro.kernels.registry import lenient_spec

    return lenient_spec(
        args.kernel, n_prototypes=args.prototypes, seed=args.kernel_seed
    )


def _command_train(args) -> int:
    session = _session(args)
    graphs, targets = _load_graphs(args)
    spec = _kernel_spec(args)
    _LOGGER.info("training %s on %d graphs", spec, len(graphs))
    bundle = session.train(
        spec,
        graphs,
        targets,
        c=args.c,
        normalize=args.normalize,
        seed=args.kernel_seed,
        metadata={
            "dataset": args.dataset,
            "tu_dir": args.tu_dir,
            "scale": args.scale,
            "dataset_seed": args.seed,
            "kernel": args.kernel,
        },
    )
    # bundle.save owns the store layout; the CLI just reports its path.
    path = bundle.save(session.ctx.store, args.name)
    print(f"bundle: {args.name}")
    print(f"path: {path}")
    print(f"kernel: {bundle.kernel.name} ({bundle.kernel_fingerprint[:12]}…)")
    print(f"spec: {bundle.kernel_spec}")
    print(f"training graphs: {bundle.n_training_graphs}")
    print(f"classes: {bundle.info()['classes']}")
    print(f"c: {bundle.c}")
    print(f"train accuracy: {bundle.train_accuracy:.4f}")
    return 0


def _scalar(value):
    """Numpy scalar → native Python (labels may be any comparable type)."""
    return value.item() if hasattr(value, "item") else value


def _command_predict(args) -> int:
    session = _session(args)
    graphs, _ = _load_graphs(args)
    result = session.predict(
        args.name, graphs, max_block_graphs=args.max_block_graphs
    )
    if args.json:
        payload = {
            "bundle": args.name,
            "classes": [_scalar(c) for c in result.classes],
            "labels": [_scalar(label) for label in result.labels],
            "margins": [[float(m) for m in row] for row in result.margins],
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for label in result.labels:
            print(_scalar(label))
    return 0


def _command_info(args) -> int:
    from repro.serve.bundle import ModelBundle

    bundle = ModelBundle.load(_context(args).store, args.name)
    if args.json:
        # One formatter with the server's GET /info: tooling that parses
        # this output parses the HTTP body unchanged (and vice versa).
        from repro.serve.protocol import bundle_info

        json.dump(bundle_info(bundle), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for key, value in bundle.info().items():
            print(f"{key}: {value}")
    return 0


def _command_serve(args) -> int:
    from repro.serve.server import make_server

    ctx = _context(args)
    server = make_server(
        ctx.store,
        host=args.host,
        port=args.port,
        default_bundle=args.bundle,
        ctx=ctx,
        batching=args.batching,
        max_batch_graphs=args.max_batch_graphs,
        max_queue_graphs=args.max_queue_graphs,
        request_timeout=args.request_timeout,
        jobs_db=args.jobs_db,
    )
    _LOGGER.info("serving on %s (batching %s, max batch %d graphs)",
                 server.url, "on" if args.batching else "off",
                 args.max_batch_graphs)
    print(f"serving on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Train, inspect and serve graph-classification bundles",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="fit and persist a bundle")
    _add_store_arguments(train)
    _add_graph_arguments(train)
    train.add_argument("--kernel", default="HAQJSK(D)",
                       help="Table IV kernel name (default: HAQJSK(D))")
    train.add_argument("--prototypes", type=int, default=16,
                       help="HAQJSK level-1 prototype count")
    train.add_argument("--kernel-seed", type=int, default=0)
    train.add_argument("--c", type=float, default=None,
                       help="box constraint (default: inner-CV selection)")
    train.add_argument("--normalize", action="store_true",
                       help="cosine-normalise the Gram (costs ΔN extra "
                            "self-pair values per serving batch)")
    train.add_argument("--engine", default=None,
                       help="gram engine: serial | batched | process")
    train.set_defaults(func=_command_train)

    predict = commands.add_parser(
        "predict", help="classify newcomer graphs from a fresh process"
    )
    _add_store_arguments(predict)
    _add_graph_arguments(predict)
    predict.add_argument("--engine", default=None)
    predict.add_argument("--batch-size", dest="max_block_graphs",
                         type=int, default=None,
                         help="predict in chunks of at most this many "
                              "graphs (bounds peak memory)")
    predict.add_argument("--json", action="store_true",
                         help="emit JSON with per-class OvO margins")
    predict.set_defaults(func=_command_predict)

    info = commands.add_parser("info", help="print bundle metadata")
    _add_store_arguments(info)
    info.add_argument("--json", action="store_true",
                      help="machine-readable JSON (same document as the "
                           "HTTP server's GET /info)")
    info.set_defaults(func=_command_info)

    serve = commands.add_parser(
        "serve",
        help="run the HTTP prediction server with continuous batching",
    )
    serve.add_argument(
        "--store", default=None,
        help="artifact-store address holding the bundles (default: "
             "$REPRO_STORE)",
    )
    serve.add_argument("--bundle", default=None,
                       help="default bundle served when a predict request "
                            "names none")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8008)
    serve.add_argument("--engine", default=None,
                       help="gram engine: serial | batched | process")
    serve.add_argument("--no-batching", dest="batching",
                       action="store_false",
                       help="predict each request on its own (the "
                            "no-batching baseline)")
    serve.add_argument("--max-batch-graphs", type=int, default=64,
                       help="most queued graphs one batch takes")
    serve.add_argument("--max-queue-graphs", type=int, default=512,
                       help="backpressure high-water mark: more queued "
                            "graphs than this -> 503 + Retry-After")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       help="seconds a request may wait for its batch")
    serve.add_argument("--jobs-db", default=None,
                       help="sqlite path for the training job table "
                            "(default: serve-jobs.db inside a directory "
                            "store, else in-memory)")
    serve.set_defaults(func=_command_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``info | grep -q ...``): stop
        # quietly, with Python's exit status for a broken pipe.
        _discard_stdout()
        return 1
    return status


def _discard_stdout() -> None:
    """Point stdout's descriptor at devnull, so the interpreter's flush
    at exit finds no closed pipe to raise on again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
