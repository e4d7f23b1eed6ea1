#!/usr/bin/env python3
"""Exotics and quasi-Monte-Carlo: the extension surface.

Uses the library beyond the paper's vanilla benchmark — the direction
the paper itself points (lattice/PDE die beyond 3 underlyings; Monte
Carlo and the Brownian bridge take over):

1. correlated two-asset exchange option vs the Margrabe closed form;
2. American put by Longstaff-Schwartz vs the lattice and PDE engines;
3. up-and-out barrier call with the bridge crossing correction;
4. Sobol QMC + inverse-CDF + Brownian bridge vs plain Monte-Carlo.

Run:  python examples/exotics_and_qmc.py
"""

import numpy as np

import repro
from repro.kernels.binomial import price_basic
from repro.kernels.brownian import (build_vectorized, make_schedule,
                                    price_up_and_out_call)
from repro.kernels.crank_nicolson import solve as cn_solve
from repro.kernels.monte_carlo import (margrabe_exact, price_american_lsmc,
                                       price_exchange)
from repro.pricing import bs_call
from repro.rng import MT19937, NormalGenerator, Sobol, icdf_transform


def exchange_option() -> None:
    print("1. Exchange option max(S1 - S2, 0), rho sweep "
          "(MC vs Margrabe):")
    z = NormalGenerator(MT19937(1)).normals(2 * 200_000).reshape(-1, 2)
    for rho in (-0.5, 0.0, 0.5, 0.9):
        corr = np.array([[1.0, rho], [rho, 1.0]])
        mc = price_exchange([100.0, 95.0], [0.30, 0.25], corr, 1.0,
                            0.03, z)
        exact = margrabe_exact(100.0, 95.0, 0.30, 0.25, rho, 1.0)
        print(f"   rho={rho:+.1f}:  MC {mc.price[0]:7.4f} "
              f"± {mc.stderr[0]:.4f}   Margrabe {exact:7.4f}")


def three_american_engines() -> None:
    print("\n2. One American put, three engines:")
    am = repro.Option(100.0, 100.0, 1.0, 0.05, 0.3,
                      repro.OptionKind.PUT, repro.ExerciseStyle.AMERICAN)
    tree = price_basic(am, 4096)
    pde = cn_solve(am, n_points=256, n_steps=400).price
    ls = price_american_lsmc(am, 60_000, 100,
                             NormalGenerator(MT19937(9)))
    print(f"   binomial lattice (N=4096):       {tree:.4f}")
    print(f"   Crank-Nicolson + PSOR (256x400): {pde:.4f}")
    print(f"   Longstaff-Schwartz (60k paths):  {ls.price[0]:.4f} "
          f"± {ls.stderr[0]:.4f}")


def barrier_with_bridge() -> None:
    print("\n3. Up-and-out call, barrier 120 (bridge correction):")
    c = repro.Option(100.0, 100.0, 1.0, 0.02, 0.25)
    for steps in (8, 16, 64):
        z = NormalGenerator(MT19937(steps)).normals(
            60_000 * steps).reshape(-1, steps)
        naive = price_up_and_out_call(c, 120.0, z,
                                      bridge_correction=False)
        fixed = price_up_and_out_call(c, 120.0, z,
                                      bridge_correction=True)
        print(f"   {steps:3d} monitoring steps: naive "
              f"{naive.price[0]:.4f}  bridge-corrected "
              f"{fixed.price[0]:.4f}")
    print("   (the naive value keeps drifting down with refinement; "
          "the corrected one is already there)")


def sobol_vs_mc() -> None:
    print("\n4. Sobol QMC + bridge vs plain MC (European call, "
          "16-step paths):")
    sch = make_schedule(4)
    S0, K, T, r, sig = 100.0, 100.0, 1.0, 0.02, 0.3
    exact = float(bs_call(S0, K, T, r, sig))

    def price(paths):
        st = S0 * np.exp((r - 0.5 * sig ** 2) * T + sig * paths[-1])
        return float(np.exp(-r * T) * np.maximum(st - K, 0.0).mean())

    print(f"   exact: {exact:.5f}")
    for n in (1024, 4096, 16384):
        u = Sobol(sch.randoms_per_path()).points(n)
        q = price(build_vectorized(sch, icdf_transform(u).reshape(-1)))
        z = NormalGenerator(MT19937(n)).normals(
            n * sch.randoms_per_path())
        m = price(build_vectorized(sch, z))
        print(f"   n={n:6d}:  QMC err {abs(q - exact):.5f}   "
              f"MC err {abs(m - exact):.5f}")


def asian_control_variate() -> None:
    print("\n5. Arithmetic Asian call: geometric control variate "
          "(16 fixings):")
    from repro.kernels.monte_carlo import price_asian_call
    from repro.pricing import geometric_asian_call
    c = repro.Option(100.0, 100.0, 1.0, 0.02, 0.3)
    plain = price_asian_call(c, 60_000, 16, NormalGenerator(MT19937(4)),
                             control_variate=False)
    cv = price_asian_call(c, 60_000, 16, NormalGenerator(MT19937(4)),
                          control_variate=True)
    geo = geometric_asian_call(100, 100, 1.0, 0.02, 0.3, 16)
    print(f"   geometric (closed form):  {geo:.4f}")
    print(f"   arithmetic, plain MC:     {plain.price[0]:.4f} "
          f"± {plain.stderr[0]:.4f}")
    print(f"   arithmetic, geo CV:       {cv.price[0]:.4f} "
          f"± {cv.stderr[0]:.4f}  "
          f"(variance / {int((plain.stderr[0] / cv.stderr[0]) ** 2)})")


def heston_smile() -> None:
    print("\n6. Heston stochastic volatility: the smile appears:")
    from repro.kernels.black_scholes import implied_vol
    from repro.pricing import HestonParams, heston_call
    hp = HestonParams(kappa=2.0, theta=0.04, sigma_v=0.4, rho=-0.7,
                      v0=0.04)
    strikes = np.array([80.0, 90.0, 100.0, 110.0, 120.0])
    prices = np.array([heston_call(100.0, k, 1.0, 0.02, hp)
                       for k in strikes])
    ivs = implied_vol(prices, np.full(5, 100.0), strikes,
                      np.full(5, 1.0), 0.02)
    for k, v, iv in zip(strikes, prices, ivs):
        print(f"   K={k:5.0f}:  price {v:7.4f}   implied vol {iv:.4f}")
    print("   (flat-vol Black-Scholes would show 0.2000 at every "
          "strike; rho<0 skews it)")


def main() -> None:
    exchange_option()
    three_american_engines()
    barrier_with_bridge()
    sobol_vs_mc()
    asian_control_variate()
    heston_smile()


if __name__ == "__main__":
    main()
