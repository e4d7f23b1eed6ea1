"""Gateway request/response types.

A :class:`PricingRequest` is one user's small option slab — the unit
the batcher coalesces.  A :class:`GatewayResult` is that user's slice
of the fused batch's result slab: per-output views into one
batch-owned contiguous block, so scattering ``B`` requests costs ``B``
view constructions plus a single bulk copy of the used region (never a
per-request array copy of the hot dispatch path).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping

import numpy as np

from ..config import DTYPE
from ..errors import DomainError, GatewayError
from ..pricing.options import validate_inputs

_NOT_FINITE = "request S/X/T/rate/vol must be finite"


class PricingRequest:
    """One user's pricing request: ``n`` contracts sharing rate/vol.

    Requests agreeing on ``(kernel, tier)`` are packed into one
    contiguous batch and priced by one compiled plan: rate and vol
    travel with the data, as two more streamed columns next to S/X/T.
    ``signature`` names the request's parameters for callers; it is
    not what the gateway coalesces by.  Every input must be finite — a
    NaN passes the positive-domain checks and would be priced, as NaN,
    inside a batch shared with other clients.
    """

    __slots__ = ("kernel", "tier", "S", "X", "T", "rate", "vol")

    def __init__(self, S, X, T, rate: float, vol: float,
                 kernel: str = "black_scholes", tier: str = "parallel"):
        self.kernel = str(kernel)
        self.tier = str(tier)
        try:        # an integer beyond float range (JSON allows one)
            self.S = np.ascontiguousarray(S, dtype=DTYPE)
            self.X = np.ascontiguousarray(X, dtype=DTYPE)
            self.T = np.ascontiguousarray(T, dtype=DTYPE)
            if not (self.S.shape == self.X.shape == self.T.shape) \
                    or self.S.ndim != 1 or self.S.shape[0] < 1:
                raise GatewayError(
                    f"request S/X/T must be equal-length non-empty 1-D "
                    f"arrays, got "
                    f"{self.S.shape}/{self.X.shape}/{self.T.shape}")
            self.rate = float(rate)
            self.vol = float(vol)
        except OverflowError:
            raise DomainError(_NOT_FINITE) from None
        if not (math.isfinite(self.rate) and math.isfinite(self.vol)
                and np.isfinite(self.S).all() and np.isfinite(self.X).all()
                and np.isfinite(self.T).all()):
            raise DomainError(_NOT_FINITE)
        validate_inputs(self.S, self.X, self.T, self.vol)

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def signature(self) -> tuple:
        return (self.kernel, self.tier, self.rate, self.vol)

    def __repr__(self) -> str:
        return (f"PricingRequest({self.kernel}/{self.tier}, n={self.n}, "
                f"r={self.rate}, sig={self.vol})")


class GatewayResult(Mapping):
    """One request's named outputs, scattered from a fused batch.

    A read-only mapping ``output name -> float64 array``: shape
    ``(k, n)`` for outputs carrying ``k`` vectors per option block
    (``price`` is ``[call | put]`` so ``k = 2``; the scenario ``grid``
    is ``k = 25``), flattened to ``(n,)`` when ``k == 1``.  Values are
    views into a block owned by this batch's scatter, so they stay
    valid for as long as any result of the batch is referenced.

    ``digest()`` is the md5 of every output's contiguous bytes in
    declared order — constructed to be byte-identical to the same
    request priced *alone* through the serial reference path
    (:func:`~repro.serve.workloads.serial_reference`), which is the
    loadtest's correctness gate.
    """

    __slots__ = ("_outputs", "n", "batch_options", "batch_requests")

    def __init__(self, outputs: dict, n: int, batch_options: int = 0,
                 batch_requests: int = 1):
        self._outputs = dict(outputs)
        #: Options in this request / in the fused batch it rode.
        self.n = int(n)
        self.batch_options = int(batch_options)
        self.batch_requests = int(batch_requests)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._outputs[name]

    def __iter__(self):
        return iter(self._outputs)

    def __len__(self) -> int:
        return len(self._outputs)

    @property
    def outputs(self) -> tuple:
        return tuple(self._outputs)

    def copy(self) -> "GatewayResult":
        """An owned deep copy (results of *later* batches never alias
        this one, but callers holding many results may prefer compact
        owned arrays over views keeping scatter blocks alive)."""
        return GatewayResult(
            {k: np.array(v, dtype=np.float64, order="C")
             for k, v in self._outputs.items()},
            self.n, self.batch_options, self.batch_requests)

    def digest(self) -> str:
        h = hashlib.md5()
        for name in self._outputs:
            h.update(np.ascontiguousarray(self._outputs[name]).tobytes())
        return h.hexdigest()
