"""CLI tests (in-process: main() takes argv)."""

import copy
import json

import pytest

import repro.__main__ as cli
import repro.bench
from repro.__main__ import main
from repro.bench.suite import FLAGS, MEASURED

#: The cheapest run of each measured bench: ``--smoke`` plus the fewest
#: repeats/samples and in-process backends only.
_SMOKE_ARGS = {
    "sweep": ["--repeats", "1", "--workers", "2",
              "--backends", "serial,thread"],
    "scaling": ["--repeats", "1", "--workers", "1,2",
                "--backends", "serial,thread"],
    "loadtest": ["--clients", "4", "--requests", "24", "--rates", "400"],
    "dse": [],
}


_CLOCK_KEYS = {"speedup", "ratio", "efficiency", "gate_5x"}


def _reclock(node, op, key=""):
    """``node`` with every timing leaf rewritten: numbers under a key
    ending ``_s``/``_ms``/``_us`` (or in ``_CLOCK_KEYS``) go through
    ``op``, booleans under those keys are flipped."""
    if isinstance(node, dict):
        return {k: _reclock(v, op, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_reclock(v, op, key) for v in node]
    if not (key.endswith(("_s", "_ms", "_us")) or key in _CLOCK_KEYS):
        return node
    if isinstance(node, bool):
        return not node
    if isinstance(node, (int, float)):
        return op(node)
    return node


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """``run(name) -> (exit code, artifact record)``, one real
    ``--smoke`` run per bench per module."""
    cache = {}

    def run(name):
        if name not in cache:
            out = tmp_path_factory.mktemp("bench") / MEASURED[name].artifact
            rc = main([name, "--smoke", *_SMOKE_ARGS[name],
                       "--out", str(out)])
            cache[name] = (rc, json.loads(out.read_text()))
        return cache[name]
    return run


class TestCLI:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "SNB-EP" in out and "KNC" in out

    @pytest.mark.parametrize("exp", ["tab1", "ninja"])
    def test_experiment(self, exp, capsys):
        assert main(["experiment", exp]) == 0
        assert capsys.readouterr().out.strip()

    def test_figure(self, capsys):
        assert main(["figure", "black_scholes"]) == 0
        out = capsys.readouterr().out
        assert "SNB-EP:" in out and "#" in out

    def test_profile(self, capsys):
        assert main(["profile", "crank_nicolson", "--arch", "SNB-EP"]) == 0
        assert "dependency stalls" in capsys.readouterr().out

    def test_ninja(self, capsys):
        assert main(["ninja"]) == 0
        assert "AVERAGE" in capsys.readouterr().out

    def test_price_european(self, capsys):
        assert main(["price", "--paths", "20000", "--steps", "256",
                     "--grid", "96"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out and "binomial" in out

    def test_price_european_put_reports_monte_carlo(self, capsys):
        assert main(["price", "--kind", "put", "--paths", "20000",
                     "--steps", "256", "--grid", "96"]) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo" in out
        # The parity-derived put estimate sits near the closed form.
        closed = float(out.split("closed form:")[1].split()[0])
        mc = float(out.split("Monte-Carlo:")[1].split()[0])
        err = float(out.split("±")[1].split()[0])
        assert abs(mc - closed) < max(3 * err, 0.5)

    def test_price_american_put(self, capsys):
        assert main(["price", "--american", "--kind", "put",
                     "--steps", "256", "--grid", "96"]) == 0
        out = capsys.readouterr().out
        assert "american put" in out
        assert "closed form" not in out  # no closed form for American

    def test_loadtest_smoke(self, capsys, tmp_path):
        import json
        out_json = tmp_path / "BENCH_serving.json"
        assert main(["loadtest", "--smoke", "--clients", "4",
                     "--requests", "24", "--rates", "400",
                     "--out", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "Serving loadtest" in out and "digests" in out
        data = json.loads(out_json.read_text())
        assert data["digests_ok"]
        assert data["capacity"]["batched"]["n_ok"] == 24

    def test_sweep_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--smoke", "--repeats", "1",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        # The gap table covers all six kernels plus the geomean row.
        for kernel in ("black_scholes", "binomial", "brownian",
                       "monte_carlo", "crank_nicolson", "rng"):
            assert kernel in out
        assert "AVERAGE" in out and "measured" in out
        assert (tmp_path / "BENCH_ninja_measured.json").exists()

    def test_sweep_kernel_subset_no_out(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--smoke", "--repeats", "1",
                     "--backends", "serial", "--kernels", "rng",
                     "--out", ""]) == 0
        out = capsys.readouterr().out
        assert "rng" in out and "black_scholes" not in out
        assert not (tmp_path / "BENCH_ninja_measured.json").exists()

    def test_scaling_crossover(self, tmp_path):
        out_json = tmp_path / "BENCH_scaling.json"
        assert main(["scaling", "--smoke", "--crossover", "--repeats", "1",
                     "--backends", "serial,thread", "--workers", "1,2",
                     "--out", str(out_json)]) == 0
        table = json.loads(out_json.read_text())["crossover"]
        assert table["backend"] == "thread" and table["n_workers"] == 2
        assert {r["kernel"] for r in table["rows"]} >= {"black_scholes",
                                                       "rng"}
        assert all(r["inline_s"] > 0 and r["pooled_s"] > 0
                   for r in table["rows"])

    def test_dse_smoke_subset(self, capsys, tmp_path, monkeypatch):
        import json
        monkeypatch.chdir(tmp_path)
        assert main(["dse", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "Design-space exploration" in out
        data = json.loads((tmp_path / "BENCH_dse.json").read_text())
        assert "black_scholes" in data["surfaces"]
        # The artifact is the only file a dse run leaves behind.
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_dse.json"]

    @pytest.mark.parametrize("name", sorted(MEASURED))
    def test_every_measured_bench_smokes(self, name, smoke_run):
        rc, record = smoke_run(name)
        assert rc == 0
        assert record["bench"] == name and record["smoke"] is True
        assert record["cpu_count"] >= 1

    def test_measured_table_is_consistent(self, capsys):
        artifacts = [spec.artifact for spec in MEASURED.values()]
        assert len(set(artifacts)) == len(artifacts)
        assert set(MEASURED) == set(_SMOKE_ARGS)
        for name, spec in MEASURED.items():
            assert spec.name == name and f"\n{name} " in cli.__doc__
            assert set(spec.flags) <= set(FLAGS)
            assert callable(getattr(repro.bench, spec.measure))
            assert all(callable(getattr(repro.bench, view))
                       for view in spec.views)
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            usage = capsys.readouterr().out
            assert "--out" in usage and "--n-workers" not in usage

    @pytest.mark.parametrize("name,doctor,reason", [
        ("sweep",
         lambda d: d["kernels"][0]["tiers"][-1].update(agrees=False),
         "tiers disagree with reference"),
        ("loadtest",
         lambda d: d["digest_mismatches"].append("req 0: a != b"),
         "digest mismatch"),
        ("loadtest",
         lambda d: d["capacity"]["batched"].update(compiles=1),
         "plan compiled inside a timed window"),
        ("sweep",
         lambda d: next(t for t in d["kernels"][0]["tiers"]
                        if t["backend"] == "thread").update(digest="0" * 32),
         "backends diverge"),
        ("sweep",
         lambda d: next(t for t in d["kernels"][0]["tiers"]
                        if t["audit"])["audit"].update(clean=False),
         "warm run allocates"),
    ])
    def test_doctored_record_fails_the_gate(self, name, doctor, reason,
                                            smoke_run, monkeypatch,
                                            capsys):
        spec = MEASURED[name]
        record = copy.deepcopy(smoke_run(name)[1])
        doctor(record)
        monkeypatch.setattr(repro.bench, spec.measure,
                            lambda **kwargs: record)
        assert main([name, "--out", ""]) == 1
        err = capsys.readouterr().err
        assert "FAIL: " in err and reason in err

    @pytest.mark.parametrize("name", sorted(MEASURED))
    def test_gates_are_clock_blind(self, name, smoke_run):
        """No exit code reads a clock: rewriting every timing figure
        of a record never changes what its gate reports."""
        spec = MEASURED[name]
        record = smoke_run(name)[1]
        for op in (lambda x: x * 100, lambda x: x * 0.01):
            doctored = _reclock(record, op)
            assert doctored != record or name == "dse"
            for smoke in (False, True):
                assert spec.failures(doctored, smoke) == \
                    spec.failures(record, smoke) == []

    def test_loadtest_timing_marks_are_not_gates(self, smoke_run):
        record = copy.deepcopy(smoke_run("loadtest")[1])
        record["capacity"]["gate_5x"] = False
        assert MEASURED["loadtest"].failures(record, False) == []

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig9"])

    def test_bad_contract_reports_error(self, capsys):
        rc = main(["price", "--spot", "-5", "--steps", "8",
                   "--grid", "96"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
