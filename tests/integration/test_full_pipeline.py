"""End-to-end pipelines: RNG → bridge → pricing; executor over kernels;
public API surface."""

import numpy as np
import pytest

import repro
from repro.kernels.brownian import build_vectorized, make_schedule
from repro.kernels.monte_carlo import price_stream
from repro.parallel import SlabExecutor
from repro.pricing import bs_call, random_batch
from repro.rng import NormalGenerator, make_streams
from repro.validation import mc_error_within_clt


class TestPublicAPI:
    def test_quickstart_flow(self):
        batch = repro.random_batch(5000, seed=1)
        repro.price_black_scholes(batch)
        exact = bs_call(batch.S, batch.X, batch.T, batch.rate, batch.vol)
        assert np.allclose(batch.call, exact, atol=1e-9)

    def test_binomial_facade(self):
        opts = [repro.Option(100, 95 + i, 1.0, 0.02, 0.3)
                for i in range(4)]
        prices = repro.price_binomial(opts, 512)
        assert prices.shape == (4,)
        assert np.all(np.diff(prices) < 0)  # rising strike, falling call

    def test_american_facade(self):
        o = repro.Option(100, 100, 1.0, 0.05, 0.3,
                         repro.OptionKind.PUT,
                         repro.ExerciseStyle.AMERICAN)
        res = repro.price_american_cn(o, n_points=96, n_steps=60)
        assert 9.0 < res.price < 11.0

    def test_experiment_facade(self):
        out = repro.format_table(repro.run_experiment("tab1"))
        assert "SNB-EP" in out and "KNC" in out

    def test_version(self):
        assert repro.__version__


class TestStreamsToBridgeToPricing:
    def test_bridge_paths_price_asian_style_payoff(self):
        """Use bridge-constructed GBM paths to price an average-price
        (Asian) call by MC and sanity-check against its vanilla bounds."""
        S0, K, T, r, sig = 100.0, 100.0, 1.0, 0.02, 0.3
        sch = make_schedule(6, horizon=T)
        n_paths = 40_000
        z = NormalGenerator(repro.rng.MT19937(5)).normals(
            n_paths * sch.randoms_per_path())
        w = build_vectorized(sch, z)              # Wiener paths
        t = np.linspace(0, T, sch.n_points)[:, None]   # step-major
        gbm = S0 * np.exp((r - 0.5 * sig ** 2) * t + sig * w)
        avg = gbm[1:].mean(axis=0)
        asian = np.exp(-r * T) * np.maximum(avg - K, 0.0).mean()
        vanilla = float(bs_call(S0, K, T, r, sig))
        assert 0 < asian < vanilla  # averaging reduces optionality
        assert asian > 0.3 * vanilla

    def test_terminal_distribution_matches_lognormal(self):
        S0, T, r, sig = 100.0, 1.0, 0.02, 0.3
        sch = make_schedule(5, horizon=T)
        z = NormalGenerator(repro.rng.MT19937(6)).normals(50_000 * 32)
        w = build_vectorized(sch, z)
        st = S0 * np.exp((r - 0.5 * sig ** 2) * T + sig * w[-1])
        assert st.mean() == pytest.approx(S0 * np.exp(r * T), rel=0.01)
        assert np.log(st).std() == pytest.approx(sig, rel=0.02)


class TestParallelPricing:
    def test_executor_matches_serial_black_scholes(self):
        batch = random_batch(10_000, seed=9)
        exact = bs_call(batch.S, batch.X, batch.T, batch.rate, batch.vol)

        def price_slab(arrays, consts, a, b, slab):
            sub = random_batch(10_000, seed=9)
            repro.price_black_scholes(sub)
            return sub.call[a:b]

        with SlabExecutor("thread", n_workers=4) as ex:
            parts = ex.map_shm(price_slab, 10_000)
        assert len(parts) == 4
        assert np.allclose(np.concatenate(parts), exact, atol=1e-9)

    def test_per_worker_streams_give_valid_mc(self):
        """Each worker prices with its own MT2203 family member; the
        combined estimate must still converge."""
        S = np.array([100.0])
        X = np.array([100.0])
        T = np.array([1.0])
        r, sig = 0.02, 0.3
        streams = make_streams(4, "mt2203", seed=3)
        gens = streams.normal_generators()
        results = [
            price_stream(S, X, T, r, sig, g.normals(30_000)) for g in gens
        ]
        combined = np.mean([res.price[0] for res in results])
        stderr = np.mean([res.stderr[0] for res in results]) / 2
        exact = float(bs_call(100, 100, 1.0, r, sig))
        assert mc_error_within_clt(combined, exact, stderr)
