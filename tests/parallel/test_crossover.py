"""Pool-crossover fallback: sub-threshold dispatches run in-caller.

The measured crossover (``MEASURED_CROSSOVER_BYTES``) says a pooled
submission only earns back its overhead once the working set reaches a
couple of MiB; below it the executor runs the *same* slab plan inline.
Bit-identity is the invariant: inline vs pooled must never change
results, only who executes the slabs.
"""

import numpy as np
import pytest

from repro import registry
from repro.config import SMOKE_SIZES
from repro.errors import ConfigurationError
from repro.parallel import (MEASURED_CROSSOVER_BYTES, SlabExecutor,
                            default_crossover_bytes)


class TestThreshold:
    def test_crossover_is_off_by_default(self):
        with SlabExecutor("thread") as ex:
            assert ex.min_parallel_bytes == 0
            assert not ex.inline(1, 1)

    def test_sub_threshold_working_sets_inline(self):
        with SlabExecutor("thread", min_parallel_bytes=1024) as ex:
            assert ex.inline(127, 8)        # 1016 B < 1024 B
            assert not ex.inline(128, 8)    # exactly at threshold: pool
            assert not ex.inline(0, 8)      # empty dispatch never inlines

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SlabExecutor("thread", min_parallel_bytes=-1)

    def test_measured_threshold_is_a_couple_of_mib(self):
        # Guard the recorded constant against accidental unit slips.
        assert 1 << 20 <= MEASURED_CROSSOVER_BYTES <= 1 << 23


class TestPolicyResolution:
    """The default crossover is the measured constant: no env var or
    file moves it."""

    def test_untuned_machine_gets_the_constant(self):
        assert default_crossover_bytes() == MEASURED_CROSSOVER_BYTES


class TestInlineDispatch:
    def test_inline_never_starts_the_pool(self):
        with SlabExecutor("thread", n_workers=2, slab_bytes=256,
                          min_parallel_bytes=1 << 62) as ex:
            out = np.zeros(4)

            def body(arrays, consts, a, b, i):
                arrays["out"][:] = np.arange(a, b)

            ex.map_shm(body, 4, bytes_per_item=64, sliced={"out": out},
                       writes=("out",))
            assert ex._pool is None          # dispatch stayed in-caller
            assert out.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_pooled_and_inline_results_are_bit_identical(self):
        payload = registry.workload("black_scholes").build(SMOKE_SIZES,
                                                           seed=2012)
        fn = registry.impl("black_scholes", "parallel", "thread").fn
        with SlabExecutor("thread", n_workers=2) as pooled, \
                SlabExecutor("thread", n_workers=2,
                             min_parallel_bytes=1 << 62) as inline:
            a = np.asarray(fn(payload, pooled))
            b = np.asarray(fn(payload, inline))
            assert inline._pool is None
            assert np.array_equal(a, b)

    def test_inline_uses_the_same_slab_plan(self):
        with SlabExecutor("thread", n_workers=2, slab_bytes=256,
                          min_parallel_bytes=1 << 62) as ex:
            seen = ex.map_shm(lambda arrays, consts, a, b, i: (a, b, i),
                              64, bytes_per_item=64)
            assert seen == [(a, b, i) for i, (a, b)
                            in enumerate(ex.plan(64, 64))]
            assert len(seen) > 1             # genuinely multi-slab
