"""Process environment shared by every benchmark process.

Every benchmark process (``run.py`` itself, cell workers, set-up
probes, servers) runs with all ``REPRO_*`` variables unset — so it gets
the default batched engine and the reference numpy/float64/eig policy —
and with OpenBLAS pinned to one thread. Pinning must happen before numpy
is imported, so entry points call :func:`pin_environment` first.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, traces and reports; listed in .gitignore.
WORK_ROOT = ROOT / ".perfbench"
#: Line a cell worker or probe prints when set-up is over.
READY = "perfbench-ready"

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Symbols that read the live OpenBLAS thread count, newest build first.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


class CheckoutError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


class ChildError(RuntimeError):
    """A child process failed, or did not answer in time."""


def pin_environment(env=None) -> "list[str]":
    """Unset ``REPRO_*`` and pin BLAS threads in ``env`` (default: ours).

    Returns the names of the ``REPRO_*`` variables that were removed.
    """
    env = os.environ if env is None else env
    removed = sorted(key for key in env if key.startswith("REPRO_"))
    for key in removed:
        del env[key]
    env.update(PINNED)
    return removed


def child_env() -> dict:
    """Environment for a child process: pinned, ``src/`` importable,
    unbuffered so the parent sees readiness lines as they are printed."""
    env = dict(os.environ)
    pin_environment(env)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise CheckoutError(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def trace_path(workload: str, seed: int) -> Path:
    """Where a traced run keeps its spans."""
    directory = WORK_ROOT / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{workload}-seed{seed}.jsonl"


class Child:
    """A child process of the benchmark: pinned environment, stdout piped
    for readiness lines, stopped and reaped when the ``with`` block ends."""

    def __init__(self, argv) -> None:
        self.argv = [str(part) for part in argv]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
        )
        self._buffer = b""

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_line(self, prefix: str, timeout: float) -> "tuple[float, str]":
        """``(seconds since spawn, line)`` for the first stdout line that
        starts with ``prefix``."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, _, self._buffer = self._buffer.partition(b"\n")
                text = line.decode("utf-8", "replace").strip()
                if text.startswith(prefix):
                    return time.perf_counter() - self.started, text
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"{self.argv[1:3]}: no {prefix!r} line in {timeout}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise ChildError(
                        f"{self.argv[1:3]} exited with code {self.proc.wait()} "
                        f"before printing {prefix!r}"
                    )
                self._buffer += chunk

    def wait(self, timeout: float) -> None:
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            raise ChildError(f"{self.argv[1:3]} still running after {timeout}s") from None
        if code != 0:
            raise ChildError(f"{self.argv[1:3]} exited with code {code}")

    def stop(self, grace: float = 20.0) -> None:
        """SIGINT (a server shuts down cleanly), then SIGKILL after ``grace``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def blas_threads() -> "int | None":
    """The live OpenBLAS thread count of this process (None if unreadable)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.restype = ctypes.c_int
                return int(function())
    return None


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckoutError(f"no VmHWM in {path}")


def source_digest() -> str:
    """SHA-256 over ``src/``'s Python files — identifies the measured
    program when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> "str | None":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(removed_env: "list[str]") -> dict:
    """What was measured, where, and under which pinning."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "pinned_env": dict(PINNED),
        "repro_env_removed": removed_env,
        "repro_env_present": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }
