"""Shared fixtures for the repro test suite."""

import numpy as np
import pytest

from repro.arch import KNC, SNB_EP
from repro.pricing import Option, OptionBatch, OptionKind, ExerciseStyle
from repro.rng import MT19937, NormalGenerator
from repro.simd import VectorMachine


@pytest.fixture(autouse=True)
def _isolated_dispatch_policy(tmp_path, monkeypatch):
    """Keep dispatch-policy resolution hermetic: a developer's real
    ``~/.cache/repro/policy.json`` or exported ``REPRO_CROSSOVER_BYTES``
    must never leak into test behaviour."""
    monkeypatch.setenv("REPRO_POLICY_PATH", str(tmp_path / "policy.json"))
    monkeypatch.delenv("REPRO_CROSSOVER_BYTES", raising=False)


@pytest.fixture
def snb():
    return SNB_EP


@pytest.fixture
def knc():
    return KNC


@pytest.fixture
def machine4():
    """A 4-wide vector machine with the SNB-EP cache stack."""
    return VectorMachine(4, SNB_EP)


@pytest.fixture
def machine8():
    """An 8-wide vector machine with the KNC cache stack."""
    return VectorMachine(8, KNC)


@pytest.fixture
def atm_option():
    return Option(spot=100.0, strike=100.0, expiry=1.0, rate=0.05, vol=0.2)


@pytest.fixture
def american_put():
    return Option(spot=100.0, strike=100.0, expiry=1.0, rate=0.05, vol=0.3,
                  kind=OptionKind.PUT, style=ExerciseStyle.AMERICAN)


@pytest.fixture
def option_group():
    """Four European calls with varied strikes (one SIMD group)."""
    return [Option(spot=100.0, strike=85.0 + 10.0 * i, expiry=1.0,
                   rate=0.02, vol=0.3) for i in range(4)]


@pytest.fixture
def normal_gen():
    return NormalGenerator(MT19937(2012))


@pytest.fixture
def rng_np():
    return np.random.default_rng(2012)
