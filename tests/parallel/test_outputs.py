"""Multi-output dispatch contract at the parallel layer: the
``outputs=`` schema validation, the frozen :class:`WritePlan`'s output
record, and the daemon's descriptor-level output-set cross-check."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DaemonError
from repro.parallel import SlabExecutor
from repro.parallel.safety import WritePlan, validate_outputs_schema


def _fill_pd(arrays, consts, a, b, slab):
    arrays["p"][:] = consts["k"]
    arrays["d"][:] = 2.0 * consts["k"]


class TestValidateOutputsSchema:
    def test_normalises_declaration_order(self):
        norm = validate_outputs_schema(
            {"price": ("c", "p"), "delta": "d"}, ("c", "p", "d"))
        assert norm == (("price", ("c", "p")), ("delta", ("d",)))

    def test_empty_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            validate_outputs_schema({}, ("out",))

    def test_output_with_no_arrays_rejected(self):
        with pytest.raises(ConfigurationError, match="no write arrays"):
            validate_outputs_schema({"price": ()}, ("out",))

    def test_array_backing_two_outputs_rejected(self):
        with pytest.raises(ConfigurationError, match="more than one"):
            validate_outputs_schema(
                {"price": ("out",), "delta": ("out",)}, ("out",))

    def test_declared_but_unwritten_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="declared-but-unwritten"):
            validate_outputs_schema(
                {"price": ("p",), "delta": ("d",)}, ("p",))

    def test_written_but_undeclared_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="written-but-undeclared"):
            validate_outputs_schema({"price": ("p",)}, ("p", "d"))


class TestWritePlanOutputs:
    def test_output_names_in_declaration_order(self):
        plan = WritePlan(n=8, slabs=((0, 8),), sliced_names=("p", "d"),
                         shared_names=(), writes=("p", "d"),
                         const_names=(),
                         outputs=(("price", ("p",)), ("delta", ("d",))))
        assert plan.output_names == ("price", "delta")

    def test_legacy_plan_has_no_outputs(self):
        plan = WritePlan(n=8, slabs=((0, 8),), sliced_names=("out",),
                         shared_names=(), writes=("out",),
                         const_names=())
        assert plan.outputs == ()
        assert plan.output_names == ()

    def test_compile_shm_freezes_schema(self):
        p = np.zeros(64)
        d = np.zeros(64)
        with SlabExecutor("serial") as ex:
            dispatch = ex.compile_shm(
                _fill_pd, 64, bytes_per_item=16,
                sliced={"p": p, "d": d}, writes=("p", "d"),
                outputs={"price": ("p",), "delta": ("d",)},
                consts={"k": 3.0})
            assert dispatch.plan.outputs == (("price", ("p",)),
                                             ("delta", ("d",)))
            dispatch.run()
        assert np.all(p == 3.0) and np.all(d == 6.0)

    def test_map_shm_rejects_inconsistent_schema(self):
        p = np.zeros(64)
        d = np.zeros(64)
        with SlabExecutor("serial") as ex:
            with pytest.raises(ConfigurationError,
                               match="written-but-undeclared"):
                ex.map_shm(_fill_pd, 64, bytes_per_item=16,
                           sliced={"p": p, "d": d}, writes=("p", "d"),
                           outputs={"price": ("p",)},
                           consts={"k": 1.0})


class TestDaemonOutputSetCheck:
    def test_multi_output_dispatch_round_trips(self):
        p = np.zeros(64)
        d = np.zeros(64)
        with SlabExecutor("daemon", n_workers=2, slab_bytes=256) as ex:
            ex.map_shm(_fill_pd, 64, bytes_per_item=16,
                       sliced={"p": p, "d": d}, writes=("p", "d"),
                       outputs={"price": ("p",), "delta": ("d",)},
                       consts={"k": 4.0})
        assert np.all(p == 4.0) and np.all(d == 8.0)

    def test_output_set_mismatch_is_a_clean_error(self):
        # A descriptor whose output-set id disagrees with the pinned
        # plan's means dispatcher and worker have different schemas for
        # the same plan id; the worker must refuse, not write buffers
        # under the wrong names.
        p = np.zeros(64)
        d = np.zeros(64)
        with SlabExecutor("daemon", n_workers=2, slab_bytes=256) as ex:
            ex.compile_shm(_fill_pd, 64, bytes_per_item=16,
                           sliced={"p": p, "d": d}, writes=("p", "d"),
                           outputs={"price": ("p",), "delta": ("d",)},
                           consts={"k": 4.0}).run()
            daemon = ex._daemon
            plan_id = next(iter(daemon._plans))
            daemon._plan_outs[plan_id] ^= 0x5A5A5A  # corrupt dispatcher
            with pytest.raises(DaemonError,
                               match="multi-output schema"):
                daemon.dispatch(plan_id)
