"""PolicyTable: entry keys, lookup precedence, persistence, resolution."""

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import MEASURED_CROSSOVER_BYTES
from repro.tune import (BOOTSTRAP_MAX_BYTES, BOOTSTRAP_MIN_BYTES,
                        CROSSOVER_ENV, PolicyEntry, PolicyTable, bootstrap,
                        default_policy_path, entry_key, load_policy,
                        resolve_crossover_bytes, shape_bucket)


class TestKeys:
    def test_shape_bucket_rounds_up_to_power_of_two(self):
        assert shape_bucket(1) == 1
        assert shape_bucket(2) == 2
        assert shape_bucket(3) == 4
        assert shape_bucket(1000) == 1024
        assert shape_bucket(1024) == 1024

    def test_shape_bucket_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            shape_bucket(0)

    def test_entry_key_format(self):
        assert entry_key("bs") == "bs[price]@*"
        assert entry_key("bs", ("price", "delta"), 64) == \
            "bs[price+delta]@64"

    def test_bad_source_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyEntry(source="guessed")


class TestLookup:
    def test_most_specific_bucket_wins(self):
        t = PolicyTable(fingerprint="f", facts={})
        t.set("bs", PolicyEntry(min_parallel_bytes=111), bucket=64)
        t.set("bs", PolicyEntry(min_parallel_bytes=222))
        t.set("*", PolicyEntry(min_parallel_bytes=333))
        assert t.min_parallel_bytes("bs", n=60) == 111
        assert t.min_parallel_bytes("bs", n=1000) == 222
        assert t.min_parallel_bytes("other") == 333
        assert t.min_parallel_bytes() == 333

    def test_entry_without_field_falls_through(self):
        # A bucket entry that only picks a bucket width must not mask
        # the kernel-level crossover.
        t = PolicyTable(fingerprint="f", facts={})
        t.set("bs", PolicyEntry(bucket_width=128), bucket=64)
        t.set("bs", PolicyEntry(min_parallel_bytes=222))
        assert t.min_parallel_bytes("bs", n=60) == 222
        assert t.value("bucket_width", "bs", n=60) == 128

    def test_empty_table_returns_none(self):
        t = PolicyTable(fingerprint="f", facts={})
        assert t.lookup("bs") is None
        assert t.min_parallel_bytes("bs") is None


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "policy.json")
        t = PolicyTable(fingerprint="abc", facts={"cpu_count": 4})
        t.set("bs", PolicyEntry(min_parallel_bytes=4096,
                                source="tuned"))
        assert t.save(path) == path
        back = PolicyTable.load(path, fingerprint="abc")
        entry = back.lookup("bs")
        assert entry.min_parallel_bytes == 4096
        assert entry.source == "tuned"
        assert back.facts == {"cpu_count": 4}

    def test_save_preserves_other_machines(self, tmp_path):
        path = str(tmp_path / "policy.json")
        PolicyTable(fingerprint="m1", facts={}).save(path)
        PolicyTable(fingerprint="m2", facts={}).save(path)
        doc = json.loads(open(path).read())
        assert set(doc["machines"]) == {"m1", "m2"}
        assert doc["version"] == 1

    def test_file_from_an_earlier_version_loads(self, tmp_path):
        # Entries once carried ten fields (tier, backend, slab_bytes and
        # the tuner's counters); the extra keys are ignored and the
        # crossover resolves as before.
        path = str(tmp_path / "old.json")
        old = {"tier": "parallel", "backend": "thread",
               "min_parallel_bytes": 4096, "slab_bytes": 1 << 20,
               "bucket_width": 128, "source": "tuned", "explore": 3,
               "exploit": 40, "samples": 6, "best_s": 1.5e-4}
        with open(path, "w") as fh:
            json.dump({"version": 1, "machines": {"abc": {
                "facts": {"cpu_count": 4},
                "entries": {"bs[price]@*": old}}}}, fh)
        back = PolicyTable.load(path, fingerprint="abc")
        assert back.lookup("bs") == PolicyEntry(
            min_parallel_bytes=4096, bucket_width=128, source="tuned")
        assert resolve_crossover_bytes("bs", policy=back,
                                       default=1) == 4096
        assert set(back.summary()["bs[price]@*"]) == \
            {"min_parallel_bytes", "bucket_width", "source"}

    def test_load_missing_file(self, tmp_path):
        path = str(tmp_path / "nope.json")
        assert PolicyTable.load(path, fingerprint="f").entries == {}
        with pytest.raises(ConfigurationError):
            PolicyTable.load(path, fingerprint="f", missing_ok=False)

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = str(tmp_path / "bad.json")
        open(path, "w").write("{not json")
        assert PolicyTable.load(path, fingerprint="f").entries == {}

    @pytest.mark.parametrize("machine", [
        None,                                            # machines: []
        [],                                              # section a list
        {"entries": {"*[price]@*": 5}},                  # entry an int
        {"entries": {"*[price]@*": {"min_parallel_bytes": 4096,
                                    "source": "learned"}}},
        {"entries": {"*[price]@*": {"min_parallel_bytes": "lots"}}},
    ], ids=["machines-list", "section-list", "entry-int",
            "unknown-source", "non-int-bytes"])
    def test_malformed_file_falls_back(self, machine, monkeypatch,
                                       tmp_path):
        # The file comes from outside the program: a malformed part is
        # dropped, so every default one-shot still resolves and prices.
        from repro.arch.host import machine_fingerprint
        from repro.kernels.black_scholes import price_parallel
        from repro.parallel import (default_crossover_bytes,
                                    default_executor, slab)
        from repro.pricing import random_batch
        path = tmp_path / "policy.json"
        machines = [] if machine is None else \
            {machine_fingerprint(): machine}
        path.write_text(json.dumps({"version": 1, "machines": machines}))
        monkeypatch.setenv("REPRO_POLICY_PATH", str(path))
        assert default_crossover_bytes() == MEASURED_CROSSOVER_BYTES
        assert load_policy("auto").entries   # bootstrapped
        # The process-wide executor resolves at creation: force a fresh
        # one, the one a default price_parallel call then uses.
        monkeypatch.setattr(slab, "_DEFAULT", None)
        ex = default_executor()
        try:
            assert ex.min_parallel_bytes == MEASURED_CROSSOVER_BYTES
            batch = random_batch(1000)
            price_parallel(batch)
            assert np.all(batch.call >= 0)
        finally:
            ex.close()
        monkeypatch.setenv(CROSSOVER_ENV, "4096")
        assert default_crossover_bytes() == 4096

    def test_default_path_respects_env(self, monkeypatch, tmp_path):
        p = str(tmp_path / "env-policy.json")
        monkeypatch.setenv("REPRO_POLICY_PATH", p)
        assert default_policy_path() == p


class TestBootstrap:
    def test_seeds_every_parallel_kernel_plus_global(self):
        from repro import registry
        t = bootstrap(PolicyTable(fingerprint="f",
                                  facts={"cpu_count": 4,
                                         "llc_bytes": 8 << 20}))
        keys = set(t.entries)
        assert entry_key("*") in keys
        modeled = [k for k in registry.parallel_kernels()
                   if registry.workload(k).modeled_gap]
        for kernel in modeled:
            assert entry_key(kernel) in keys
        for e in t.entries.values():
            assert e.source == "bootstrap"
            assert (BOOTSTRAP_MIN_BYTES <= e.min_parallel_bytes
                    <= BOOTSTRAP_MAX_BYTES)

    def test_existing_entries_not_overwritten(self):
        t = PolicyTable(fingerprint="f",
                        facts={"cpu_count": 4, "llc_bytes": 8 << 20})
        t.set("black_scholes", PolicyEntry(min_parallel_bytes=7,
                                           source="pinned"))
        bootstrap(t)
        assert t.lookup("black_scholes").min_parallel_bytes == 7


class TestResolution:
    def test_env_beats_policy_beats_default(self, monkeypatch):
        t = PolicyTable(fingerprint="f", facts={})
        t.set("bs", PolicyEntry(min_parallel_bytes=555))
        assert resolve_crossover_bytes("bs", policy=t, default=999) == 555
        assert resolve_crossover_bytes("other", policy=t,
                                       default=999) == 999
        monkeypatch.setenv(CROSSOVER_ENV, "123")
        assert resolve_crossover_bytes("bs", policy=t, default=999) == 123

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(CROSSOVER_ENV, "lots")
        with pytest.raises(ConfigurationError):
            resolve_crossover_bytes(default=1)

    def test_no_policy_file_means_historical_default(self):
        # The conftest autouse fixture points REPRO_POLICY_PATH at a
        # nonexistent file, so an untuned machine resolves to the
        # documented constant, bit for bit.
        assert not os.path.exists(default_policy_path())
        assert resolve_crossover_bytes(
            "black_scholes",
            default=MEASURED_CROSSOVER_BYTES) == MEASURED_CROSSOVER_BYTES

    def test_policy_file_consulted_when_present(self, monkeypatch,
                                                tmp_path):
        path = str(tmp_path / "policy.json")
        monkeypatch.setenv("REPRO_POLICY_PATH", path)
        t = PolicyTable()
        t.set("bs", PolicyEntry(min_parallel_bytes=777))
        t.save(path)
        assert resolve_crossover_bytes("bs", default=1) == 777


class TestLoadPolicy:
    def test_fixed_and_none_disable(self):
        assert load_policy(None) is None
        assert load_policy("fixed") is None

    def test_table_passes_through(self):
        t = PolicyTable(fingerprint="f", facts={})
        assert load_policy(t) is t

    def test_auto_bootstraps_empty_file(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_POLICY_PATH",
                           str(tmp_path / "policy.json"))
        t = load_policy("auto")
        assert t.entries          # bootstrapped from the analytic model

    def test_path_must_exist(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_policy(str(tmp_path / "missing.json"))
