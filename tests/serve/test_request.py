"""PricingRequest validation and GatewayResult mapping semantics."""

import numpy as np
import pytest

from repro.errors import DomainError, GatewayError
from repro.serve import GatewayResult, PricingRequest


def _req(m=4, **kw):
    base = dict(S=np.linspace(50, 150, m), X=np.full(m, 100.0),
                T=np.full(m, 1.0), rate=0.05, vol=0.2)
    base.update(kw)
    return PricingRequest(**base)


class TestPricingRequest:
    def test_basic_fields(self):
        r = _req(6)
        assert r.n == 6
        assert r.kernel == "black_scholes"
        assert r.tier == "parallel"
        assert r.signature == ("black_scholes", "parallel", 0.05, 0.2)

    def test_arrays_coerced_contiguous_float64(self):
        r = _req(4, S=[100, 110, 120, 130])
        assert r.S.dtype == np.float64
        assert r.S.flags["C_CONTIGUOUS"]

    def test_contiguous_float64_input_is_aliased_not_copied(self):
        S = np.linspace(50, 150, 4)
        r = _req(4, S=S)
        assert r.S is S        # pack-in-place depends on no hidden copy

    def test_length_mismatch_rejected(self):
        with pytest.raises(GatewayError, match="length"):
            _req(4, X=np.full(3, 100.0))

    def test_empty_rejected(self):
        with pytest.raises(GatewayError):
            _req(0, S=np.array([]), X=np.array([]), T=np.array([]))

    def test_2d_rejected(self):
        with pytest.raises(GatewayError):
            _req(4, S=np.ones((2, 2)))

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(Exception):
            _req(4, S=np.array([100.0, -1.0, 100.0, 100.0]))


    @pytest.mark.parametrize("bad", [
        dict(rate=float("nan")), dict(vol=float("nan")),
        dict(vol=float("inf")), dict(rate=float("-inf")),
        dict(S=np.array([np.nan, 90.0, 100.0, 110.0])),
        dict(X=np.array([100.0, np.inf, 100.0, 100.0])),
        dict(T=np.array([1.0, 1.0, np.nan, 1.0]))])
    def test_nonfinite_inputs_rejected(self, bad):
        # NaN passes every ``x <= 0`` domain check; unrejected it would
        # be priced as NaN inside a batch shared with other clients.
        with pytest.raises(DomainError, match="finite"):
            _req(4, **bad)

    @pytest.mark.parametrize("bad", [
        dict(S=[10 ** 400, 90.0, 100.0, 110.0]), dict(rate=10 ** 400)])
    def test_integer_beyond_float_range_rejected(self, bad):
        # JSON allows integers no double holds; converting one raises
        # OverflowError, which must surface as the same typed error.
        with pytest.raises(DomainError, match="finite"):
            _req(4, **bad)


class TestGatewayResult:
    def _result(self):
        return GatewayResult({"price": np.arange(8.0).reshape(2, 4),
                              "delta": np.arange(4.0)}, 4,
                             batch_options=32, batch_requests=3)

    def test_mapping_protocol(self):
        res = self._result()
        assert res.n == 4
        assert set(res) == {"price", "delta"}
        assert len(res) == 2
        assert res.outputs == ("price", "delta")
        assert res["price"].shape == (2, 4)
        assert res.batch_options == 32 and res.batch_requests == 3

    def test_digest_deterministic_and_value_sensitive(self):
        a, b = self._result(), self._result()
        assert a.digest() == b.digest()
        b["price"][0, 0] += 1.0
        assert a.digest() != b.digest()

    def test_copy_detaches_storage(self):
        a = self._result()
        c = a.copy()
        c["price"][0, 0] = 99.0
        assert a["price"][0, 0] == 0.0
