"""Risk-tier acceptance across the kernel set.

Numeric correctness of the new multi-output tiers — the fused analytic
Black-Scholes Greeks against central finite differences of the closed
forms, the CRN variance-reduction inequality the bump tiers are built
on, the implied-vol round trip — plus the contract-level check that
every registered Greeks tier's result slab is bit-identical across all
four backends.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from repro import registry
from repro.config import SMOKE_SIZES
from repro.kernels.black_scholes.greeks import compile_greeks_parallel
from repro.kernels.black_scholes.implied import (call_price_sig,
                                                 compile_implied_parallel,
                                                 surface_vols)
from repro.kernels.monte_carlo import BUMP_REL
from repro.kernels.monte_carlo.bump import compile_greeks_stream
from repro.kernels.monte_carlo.vectorized import price_stream
from repro.parallel import SlabExecutor
from repro.plan import one_shot
from repro.pricing import bs_call, bs_put, random_batch
from repro.results import as_result_slab
from repro.rng import MT19937, NormalGenerator
from repro.simd.layout import aos_to_soa

BACKENDS = ("serial", "thread", "process", "daemon")


@pytest.fixture()
def serial_ex():
    with SlabExecutor("serial", slab_bytes=16 * 1024) as ex:
        yield ex


class TestAnalyticGreeksVsFiniteDifferences:
    """The fused tier's Greeks are derivatives of the closed-form
    price; central differences of ``bs_call``/``bs_put`` are an
    independent oracle for every one of them."""

    @pytest.fixture(scope="class")
    def case(self):
        batch = random_batch(128, seed=7, layout="soa")
        soa = batch.batch if batch.layout == "soa" else None
        S, X, T = soa.get("S"), soa.get("X"), soa.get("T")
        with SlabExecutor("serial", slab_bytes=16 * 1024) as ex:
            out = one_shot(compile_greeks_parallel, batch, executor=ex)
        return S, X, T, batch.rate, batch.vol, out

    @staticmethod
    def _split(out, name, n):
        return out[name][:n], out[name][n:]

    def test_price_matches_closed_form(self, case):
        S, X, T, r, sig, out = case
        call, put = self._split(out, "price", S.shape[0])
        # atol floors the comparison above denormal deep-OTM prices,
        # where the fused ordering rounds to exactly 0.0.
        assert_allclose(call, bs_call(S, X, T, r, sig),
                        rtol=1e-12, atol=1e-12)
        assert_allclose(put, bs_put(S, X, T, r, sig),
                        rtol=1e-12, atol=1e-12)

    def test_delta(self, case):
        S, X, T, r, sig, out = case
        h = 1e-5 * S
        fd_c = (bs_call(S + h, X, T, r, sig)
                - bs_call(S - h, X, T, r, sig)) / (2 * h)
        fd_p = (bs_put(S + h, X, T, r, sig)
                - bs_put(S - h, X, T, r, sig)) / (2 * h)
        call, put = self._split(out, "delta", S.shape[0])
        assert_allclose(call, fd_c, rtol=1e-5, atol=1e-7)
        assert_allclose(put, fd_p, rtol=1e-5, atol=1e-7)

    def test_gamma_second_difference(self, case):
        S, X, T, r, sig, out = case
        h = 1e-3 * S
        base = bs_call(S, X, T, r, sig)
        fd = (bs_call(S + h, X, T, r, sig) - 2 * base
              + bs_call(S - h, X, T, r, sig)) / (h * h)
        call, put = self._split(out, "gamma", S.shape[0])
        assert_allclose(call, fd, rtol=1e-4, atol=1e-6)
        # Call and put gamma are identical by construction.
        assert np.array_equal(call, put)

    def test_vega(self, case):
        S, X, T, r, sig, out = case
        h = 1e-5
        fd = (bs_call(S, X, T, r, sig + h)
              - bs_call(S, X, T, r, sig - h)) / (2 * h)
        call, put = self._split(out, "vega", S.shape[0])
        assert_allclose(call, fd, rtol=1e-5, atol=1e-6)
        assert np.array_equal(call, put)

    def test_theta_is_minus_dT(self, case):
        S, X, T, r, sig, out = case
        h = 1e-5
        fd_c = -(bs_call(S, X, T + h, r, sig)
                 - bs_call(S, X, T - h, r, sig)) / (2 * h)
        fd_p = -(bs_put(S, X, T + h, r, sig)
                 - bs_put(S, X, T - h, r, sig)) / (2 * h)
        call, put = self._split(out, "theta", S.shape[0])
        assert_allclose(call, fd_c, rtol=1e-5, atol=1e-6)
        assert_allclose(put, fd_p, rtol=1e-5, atol=1e-6)

    def test_rho(self, case):
        S, X, T, r, sig, out = case
        h = 1e-6
        fd_c = (bs_call(S, X, T, r + h, sig)
                - bs_call(S, X, T, r - h, sig)) / (2 * h)
        fd_p = (bs_put(S, X, T, r + h, sig)
                - bs_put(S, X, T, r - h, sig)) / (2 * h)
        call, put = self._split(out, "rho", S.shape[0])
        assert_allclose(call, fd_c, rtol=1e-5, atol=1e-6)
        assert_allclose(put, fd_p, rtol=1e-5, atol=1e-6)


class TestCommonRandomNumbers:
    """The reason the bump tiers replay one stream: under CRN the path
    noise cancels in the central difference, so the delta estimator's
    sampling variance must sit strictly below independent draws."""

    def test_crn_bump_variance_below_independent(self, serial_ex):
        n_paths, h = 4096, BUMP_REL
        S, X, T, r, sig = [100.0], [100.0], [1.0], 0.02, 0.3
        crn, ind = [], []
        for k in range(24):
            z = NormalGenerator(MT19937(1000 + k)).normals(n_paths)
            z2 = NormalGenerator(MT19937(5000 + k)).normals(n_paths)
            out = one_shot(compile_greeks_stream, S, X, T, r, sig, z,
                           executor=serial_ex, h=h)
            crn.append(out["delta"][0])
            up = price_stream([100.0 * (1 + h)], X, T, r, sig, z)
            dn = price_stream([100.0 * (1 - h)], X, T, r, sig, z2)
            ind.append((up.price[0] - dn.price[0]) / (2 * h * 100.0))
        var_crn, var_ind = np.var(crn), np.var(ind)
        # Typically 3+ orders of magnitude apart; the contract is the
        # strict inequality.
        assert var_crn < var_ind, (var_crn, var_ind)
        assert var_crn < 0.1 * var_ind, (var_crn, var_ind)


class TestImpliedVolRoundTrip:
    def test_price_iv_price_closes(self, serial_ex):
        batch = random_batch(256, seed=11, layout="soa")
        soa = batch.batch
        S, X, T = soa.get("S"), soa.get("X"), soa.get("T")
        sig_true = surface_vols(batch)
        target = np.empty_like(S)
        call_price_sig(S, X, T, batch.rate, sig_true, target)
        iv = one_shot(compile_implied_parallel, batch,
                      executor=serial_ex)["implied_vol"]
        reprice = np.empty_like(S)
        call_price_sig(S, X, T, batch.rate, iv, reprice)
        assert np.max(np.abs(reprice - target)) < 1e-10
        # The vol itself is only identifiable where the price moves
        # with it: deep ITM/OTM options have vanishing vega, so any σ
        # in a band reprices within 1e-10 and recovery there is
        # ill-posed by construction, not a solver defect.
        from repro.pricing import bs_vega
        sensitive = bs_vega(S, X, T, batch.rate, sig_true) > 1e-6
        assert sensitive.sum() > 0.8 * len(batch)
        assert_allclose(iv[sensitive], sig_true[sensitive],
                        rtol=1e-6, atol=1e-8)


class TestBackendBitIdentity:
    """Every registered Greeks tier must produce the same multi-output
    slab — digest-identical — on serial, thread, process and daemon."""

    @pytest.mark.parametrize("kernel", registry.greeks_kernels())
    def test_four_backend_digests_agree(self, kernel):
        tier = registry.greeks_tier(kernel)
        spec = registry.workload(kernel)
        payload = spec.build(SMOKE_SIZES, seed=2012)
        digests = {}
        for backend in BACKENDS:
            impl = registry.impl(kernel, tier, backend)
            with SlabExecutor(backend, n_workers=2) as ex:
                out = as_result_slab(impl.fn(payload, ex), impl.outputs)
                assert out.outputs == impl.outputs
                digests[backend] = out.digest()
        assert len(set(digests.values())) == 1, digests
