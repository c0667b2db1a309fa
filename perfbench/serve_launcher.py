"""Start the HTTP server with the benchmark's layer hooks installed.

    python3 perfbench/serve_launcher.py --spans PATH -- serve --store ...

Installs the wrappers in this process — the server's — and then calls
``repro.serve.cli.main`` with the arguments after ``--``, exactly what
``python -m repro.serve`` runs. When the server stops (SIGINT), the
spans kept in memory are written to ``PATH`` and the hooks that found
no target to ``PATH.missing.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchenv  # noqa: E402

benchenv.pin_environment()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSONL file for the spans")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER,
                        help="-- followed by the repro.serve CLI arguments")
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    benchenv.import_program()
    import layers
    import tracing
    from repro.serve.cli import main as serve_main

    tracer = tracing.Tracer()
    hooks = tracing.HookSet(tracer, layers.layer_hooks(tracer)).install()
    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(args.spans)
        with open(args.spans + ".missing.json", "w") as out:
            json.dump(hooks.missing, out)


if __name__ == "__main__":
    sys.exit(main())
