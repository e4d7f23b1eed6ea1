"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch one type at an API boundary. Subclasses identify the subsystem
that failed; they carry plain messages and never wrap silently.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the repro library."""


class ConfigurationError(ReproError):
    """An architecture/kernel/benchmark was configured inconsistently."""


class LayoutError(ReproError):
    """A data-layout operation (AOS/SOA transform, batch padding) failed."""


class VectorWidthError(ReproError):
    """An operation mixed SIMD vectors of incompatible widths."""


class TraceError(ReproError):
    """An :class:`~repro.simd.trace.OpTrace` was used inconsistently."""


class ConvergenceError(ReproError):
    """An iterative solver (GSOR/PSOR) failed to reach tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DomainError(ReproError):
    """A pricing input was outside the valid financial domain."""


class WriteRaceError(ReproError):
    """A slab dispatch would let two workers write overlapping memory
    (overlapping slab ranges, a shared array in ``writes``, or two write
    arrays aliasing one buffer). Raised before any worker runs."""


class AnalysisError(ReproError):
    """The static-analysis driver was misused (unknown rule code,
    unreadable baseline, unparseable input)."""


class DaemonError(ReproError):
    """The standing worker daemon failed: a worker died mid-dispatch, a
    control round-trip timed out, or the daemon is in a state that
    cannot serve the request."""


class DaemonNotRunningError(DaemonError):
    """A dispatch or control call was attempted against a daemon that
    is not running (never started or already stopped).  Raised eagerly
    instead of hanging on a ring."""


class RingABIError(DaemonError):
    """A shared-memory ring's header does not match this client: wrong
    magic (not a repro ring) or an incompatible ABI version (daemon and
    client built from different ring layouts)."""


class ExperimentError(ReproError):
    """A benchmark experiment id is unknown or its inputs are invalid."""


class GatewayError(ReproError):
    """The async pricing gateway failed: an unsupported kernel/tier was
    requested, a request was malformed, or the batcher is in a state
    that cannot serve it."""


class GatewayOverloadError(GatewayError):
    """The gateway shed a request: queued work exceeded the configured
    backlog cap.  Open-loop callers should treat this as backpressure
    and retry later (the gateway stays healthy)."""


class GatewayClosedError(GatewayError):
    """A request arrived after the gateway began (or finished) its
    graceful drain; nothing was queued."""
