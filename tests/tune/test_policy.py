"""PolicyTable: entry keys, lookup precedence, persistence."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.tune import PolicyEntry, PolicyTable, entry_key, shape_bucket


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
        assert t.lookup("bs", n=60).min_parallel_bytes == 111
        assert t.lookup("bs", n=1000).min_parallel_bytes == 222
        assert t.lookup("bs").min_parallel_bytes == 222
        assert t.lookup("other").min_parallel_bytes == 333

    def test_empty_table_returns_none(self):
        t = PolicyTable(fingerprint="f", facts={})
        assert t.lookup("bs") is None
        assert t.lookup("bs", n=60) is None


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
        # the tuner's counters); the extra keys are ignored.
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
        assert back.facts == {"cpu_count": 4}

    def test_load_missing_file(self, tmp_path):
        path = str(tmp_path / "nope.json")
        table = PolicyTable.load(path, fingerprint="f")
        assert table.fingerprint == "f"
        assert table.entries == {} and table.facts == {}

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
    def test_malformed_file_falls_back(self, machine, tmp_path):
        # The file comes from outside the program: load drops a
        # malformed part and keeps the well-formed rest.
        good = {"min_parallel_bytes": 2048, "source": "pinned"}
        path = tmp_path / "policy.json"
        machines = [] if machine is None else {
            "f": machine, "other": {"entries": {"*[price]@*": good}}}
        path.write_text(json.dumps({"version": 1, "machines": machines}))
        assert PolicyTable.load(str(path), fingerprint="f").entries == {}
        if machine is not None:
            other = PolicyTable.load(str(path), fingerprint="other")
            assert other.lookup("bs") == PolicyEntry(**good)
