"""Option contract and batch tests."""

import numpy as np
import pytest

from repro.errors import DomainError
from repro.pricing import (BS_FIELDS, ExerciseStyle, Option, OptionBatch,
                           OptionKind, validate_inputs)


class TestOption:
    def test_construction(self, atm_option):
        assert atm_option.spot == 100.0
        assert atm_option.is_call
        assert atm_option.style is ExerciseStyle.EUROPEAN

    def test_put_kind(self):
        o = Option(100, 100, 1, 0.02, 0.3, OptionKind.PUT)
        assert not o.is_call

    @pytest.mark.parametrize("field,value", [
        ("spot", -1.0), ("spot", 0.0), ("strike", -5.0),
        ("expiry", 0.0), ("vol", -0.1), ("vol", 0.0),
    ])
    def test_domain_validation(self, field, value):
        kwargs = dict(spot=100.0, strike=100.0, expiry=1.0, rate=0.02,
                      vol=0.3)
        kwargs[field] = value
        with pytest.raises(DomainError):
            Option(**kwargs)

    def test_negative_rate_allowed(self):
        Option(100, 100, 1, -0.01, 0.3)  # negative rates are a thing

    def test_frozen(self, atm_option):
        with pytest.raises(AttributeError):
            atm_option.spot = 50.0


class TestValidateInputs:
    def test_vectorized_validation(self):
        with pytest.raises(DomainError):
            validate_inputs(np.array([1.0, -1.0]), np.ones(2), np.ones(2),
                            0.3)

    def test_all_valid_passes(self):
        validate_inputs(np.ones(3), np.ones(3), np.ones(3), 0.2)


class TestOptionBatch:
    def _batch(self, layout):
        return OptionBatch(
            S=[100.0, 90.0], X=[95.0, 105.0], T=[1.0, 0.5],
            rate=0.02, vol=0.3, layout=layout,
        )

    @pytest.mark.parametrize("layout", ["soa", "aos"])
    def test_accessors(self, layout):
        b = self._batch(layout)
        assert b.layout == layout
        assert np.allclose(b.S, [100, 90])
        assert np.allclose(b.X, [95, 105])
        assert np.allclose(b.T, [1.0, 0.5])
        assert np.allclose(b.call, 0) and np.allclose(b.put, 0)
        assert len(b) == 2

    def test_bytes_per_option_is_40(self):
        assert self._batch("soa").bytes_per_option == 40
        assert len(BS_FIELDS) == 5

    def test_extract_option(self):
        b = self._batch("soa")
        o = b.option(1, kind=OptionKind.PUT)
        assert o.spot == 90.0 and o.strike == 105.0 and not o.is_call
        assert o.rate == 0.02 and o.vol == 0.3

    def test_option_index_bounds(self):
        with pytest.raises(DomainError):
            self._batch("soa").option(2)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            OptionBatch([1.0], [1.0, 2.0], [1.0], 0.0, 0.3)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            OptionBatch([100.0], [-1.0], [1.0], 0.0, 0.3)

    def test_per_option_columns(self):
        vol = np.array([0.3, 0.4])
        b = OptionBatch([100.0, 90.0], [95.0, 105.0], [1.0, 0.5],
                        rate=0.02, vol=vol)
        assert b.per_option and not self._batch("soa").per_option
        # One array makes both columns; each is owned and writable.
        assert np.array_equal(b.rate, [0.02, 0.02])
        b.vol[0] = 0.5
        assert vol[0] == 0.3
        o = b.option(1)
        assert o.rate == 0.02 and o.vol == 0.4
        with pytest.raises(DomainError, match="length 2"):
            OptionBatch([100.0, 90.0], [95.0, 105.0], [1.0, 0.5],
                        rate=np.zeros(3), vol=0.3)
        with pytest.raises(DomainError):
            OptionBatch([100.0, 90.0], [95.0, 105.0], [1.0, 0.5],
                        rate=0.02, vol=[0.3, -0.1])

    def test_unknown_layout(self):
        with pytest.raises(DomainError):
            OptionBatch([1.0], [1.0], [1.0], 0.0, 0.3, layout="csr")

    def test_outputs_writable(self):
        b = self._batch("aos")
        b.call[:] = [1.0, 2.0]
        assert np.allclose(b.call, [1, 2])
