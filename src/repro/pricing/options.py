"""Option contracts and batches.

A single :class:`Option` is the scalar-reference-code view; an
:class:`OptionBatch` is the benchmark workload view — ``nopt`` contracts
with per-contract spot ``S``, strike ``X`` and expiry ``T``, sharing the
risk-free rate ``r`` and volatility ``sig`` across the batch exactly as
the paper's Black-Scholes kernel assumes (Sec. IV-A1) — or, coalesced
from many requests, carrying them as two more columns. Batches exist in
both AOS and SOA layouts through :mod:`repro.simd.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..config import DTYPE
from ..errors import DomainError
from ..simd.layout import AOSBatch, FieldSpec, SOABatch


class OptionKind(Enum):
    CALL = "call"
    PUT = "put"


class ExerciseStyle(Enum):
    EUROPEAN = "european"
    AMERICAN = "american"


@dataclass(frozen=True)
class Option:
    """One vanilla option contract.

    Attributes
    ----------
    spot:
        Current underlying price ``S``.
    strike:
        Exercise price ``K`` (the paper's ``X``).
    expiry:
        Time to expiry ``T`` in years.
    rate:
        Continuously-compounded risk-free rate ``r``.
    vol:
        Implied volatility ``σ``.
    kind / style:
        Call/put, European/American.
    """

    spot: float
    strike: float
    expiry: float
    rate: float
    vol: float
    kind: OptionKind = OptionKind.CALL
    style: ExerciseStyle = ExerciseStyle.EUROPEAN

    def __post_init__(self):
        validate_inputs(self.spot, self.strike, self.expiry, self.vol)

    @property
    def is_call(self) -> bool:
        return self.kind is OptionKind.CALL


def validate_inputs(spot, strike, expiry, vol) -> None:
    """Domain checks shared by scalar and batch constructors."""
    spot = np.asarray(spot)
    strike = np.asarray(strike)
    expiry = np.asarray(expiry)
    vol = np.asarray(vol)
    if np.any(spot <= 0):
        raise DomainError("spot prices must be positive")
    if np.any(strike <= 0):
        raise DomainError("strike prices must be positive")
    if np.any(expiry <= 0):
        raise DomainError("expiries must be positive")
    if np.any(vol <= 0):
        raise DomainError("volatilities must be positive")


#: Field layout of the Black-Scholes batch: 3 inputs + 2 outputs = 5
#: doubles = 40 bytes per option — the figure behind the paper's ``B/40``
#: bandwidth bound.
BS_FIELDS = (
    FieldSpec("S"),
    FieldSpec("X"),
    FieldSpec("T"),
    FieldSpec("call", output=True),
    FieldSpec("put", output=True),
)


class OptionBatch:
    """``nopt`` options in a chosen layout.

    ``rate``/``vol`` are two floats shared by the batch (the paper's
    form: planners bake them into dispatch constants) or, if either is
    an array, two owned length-``n`` columns (``per_option``: planners
    stream them next to S/X/T, so one plan prices any mix).
    """

    def __init__(self, S, X, T, rate, vol, layout: str = "soa"):
        S = np.ascontiguousarray(S, dtype=DTYPE)
        X = np.ascontiguousarray(X, dtype=DTYPE)
        T = np.ascontiguousarray(T, dtype=DTYPE)
        if not (S.shape == X.shape == T.shape) or S.ndim != 1:
            raise DomainError(
                f"S/X/T must be equal-length 1-D arrays, got "
                f"{S.shape}/{X.shape}/{T.shape}"
            )
        validate_inputs(S, X, T, vol)
        self.n = S.shape[0]
        self.per_option = bool(np.ndim(rate) or np.ndim(vol))
        if not self.per_option:
            self.rate, self.vol = float(rate), float(vol)
        elif {np.shape(rate), np.shape(vol)} <= {(), S.shape}:
            self.rate, self.vol = (
                np.array(np.broadcast_to(v, S.shape), dtype=DTYPE)
                for v in (rate, vol))
        else:
            raise DomainError(
                f"rate/vol columns must have length {self.n}, got "
                f"{np.shape(rate)}/{np.shape(vol)}")
        if layout == "soa":
            self.batch = SOABatch(BS_FIELDS, self.n,
                                  arrays={"S": S, "X": X, "T": T})
        elif layout == "aos":
            self.batch = AOSBatch(BS_FIELDS, self.n)
            self.batch.set("S", S)
            self.batch.set("X", X)
            self.batch.set("T", T)
        else:
            raise DomainError(f"unknown layout {layout!r}")

    @property
    def layout(self) -> str:
        return self.batch.layout

    # Convenience accessors -------------------------------------------
    @property
    def S(self) -> np.ndarray:
        return self.batch.get("S")

    @property
    def X(self) -> np.ndarray:
        return self.batch.get("X")

    @property
    def T(self) -> np.ndarray:
        return self.batch.get("T")

    @property
    def call(self) -> np.ndarray:
        return self.batch.get("call")

    @property
    def put(self) -> np.ndarray:
        return self.batch.get("put")

    def option(self, i: int, kind: OptionKind = OptionKind.CALL,
               style: ExerciseStyle = ExerciseStyle.EUROPEAN) -> Option:
        """Extract contract ``i`` as a scalar :class:`Option`."""
        if not 0 <= i < self.n:
            raise DomainError(f"option index {i} out of range [0, {self.n})")
        rate, vol = ((float(self.rate[i]), float(self.vol[i]))
                     if self.per_option else (self.rate, self.vol))
        return Option(
            spot=float(self.S[i]), strike=float(self.X[i]),
            expiry=float(self.T[i]), rate=rate, vol=vol,
            kind=kind, style=style,
        )

    @property
    def bytes_per_option(self) -> int:
        return len(BS_FIELDS) * 8

    def __len__(self):
        return self.n
