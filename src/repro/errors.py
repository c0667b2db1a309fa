"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to discriminate the concrete cause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, range, or type)."""


class GraphError(ReproError):
    """A graph structure is malformed or an operation on it is undefined."""


class DatasetError(ReproError):
    """A dataset could not be constructed, parsed, or validated."""


class QuantumError(ReproError):
    """A quantum-information computation received an invalid operator/state."""


class NotDensityMatrixError(QuantumError):
    """A matrix expected to be a density matrix is not PSD / trace-one."""


class AlignmentError(ReproError):
    """Prototype construction or vertex correspondence failed."""


class KernelError(ReproError):
    """A graph-kernel computation failed or was configured inconsistently."""


class KernelSpecError(KernelError, ValueError):
    """A declarative kernel specification names an unregistered kernel or
    passes parameters the registered signature does not accept."""


class BackendError(KernelError):
    """A compute policy is misconfigured.

    Raised by :class:`repro.backend.ComputePolicy` for an unknown
    precision or entropy path (the message lists the accepted names) and
    for a degenerate Chebyshev degree or ``approx_min_dim``.
    """


class NotFittedError(ReproError):
    """A model or transformer was used before ``fit`` was called."""


class ServingError(ReproError):
    """A model bundle is missing, corrupt, or inconsistent with its data."""


class ProtocolError(ServingError):
    """A serving request body failed to parse or validate (HTTP 400).

    Raised by :mod:`repro.serve.protocol` while decoding wire-format
    graphs and request payloads — the message names the offending field,
    and the HTTP layer maps the whole class to a 400 response.
    """


class ServerBusyError(ServingError):
    """The server cannot take the request now (HTTP 503).

    Backpressure, not failure: the micro-batcher refuses work past its
    queue's high-water mark instead of queueing unboundedly, and once it
    is closed (a retrain replaced it, or the server is shutting down).
    Carries ``retry_after`` seconds the HTTP layer surfaces as a
    ``Retry-After`` header.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ServeTimeoutError(ServingError):
    """A serving request waited past its deadline (HTTP 504)."""


class DistributedError(ReproError):
    """A distributed tile job is misconfigured, incomplete, or timed out."""


class CampaignError(ReproError):
    """A campaign DAG or node is invalid, failed, or inconsistent with its
    recorded state, or a sqlite state file was given no path."""


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped at its iteration cap before converging."""
