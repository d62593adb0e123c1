"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _file_generators(job):
    """The generators in a job's ideal file, as the corpus renders them."""
    (text,) = job["files"].values()
    head, body = text.split(";\n", 1)
    names = [v.strip() for v in head.removeprefix("ring ").split(",")]
    return {corpus.to_text(corpus.parse_text(g, names), names) for g in body.split(",\n")}


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_jobs(workload):
    a = corpus.job_list(workload, 7, 3)
    assert a == corpus.job_list(workload, 7, 3)
    assert a != corpus.job_list(workload, 8, 3)
    assert a != corpus.job_list(workload, 7, 4)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
@pytest.mark.parametrize("seed", range(12))
def test_no_ideal_repeats_within_a_worker(workload, seed):
    jobs = [j for j in corpus.job_list(workload, seed, 0) if j["files"] or "quot" in j]
    assert len(jobs) > 1 and all("ideal" in j["expect"] for j in jobs)
    keys = [(j["expect"].get("char", 0), json.dumps(j["expect"]["ideal"])) for j in jobs]
    assert len(keys) == len(set(keys))
    for job in jobs:
        if job["files"]:
            # the key is made of generators the worker is really given
            assert set(job["expect"]["ideal"]) <= _file_generators(job)


def test_ideal_key_is_canonical_for_a_moved_monomial_ideal():
    rng = corpus.random.Random(0)

    def key(perm, shift):
        return corpus.ideal_key(corpus.Variant(perm, shift, rng).moved(corpus.AXES), corpus.XYZ)

    # the axes are fixed by every permutation, but not by a translation
    assert key((0, 1, 2), (1, 1, -1)) == key((2, 0, 1), (1, 1, -1))
    assert key((0, 1, 2), (1, 1, -1)) != key((0, 1, 2), (1, -1, 1))
    variants = corpus.distinct_variants(rng, corpus.AXES, corpus.XYZ, 8)
    assert len({tuple(corpus.ideal_key(v.moved(corpus.AXES), corpus.XYZ))
                for v in variants}) == 8


def test_tangent_oracle_matches_paper_values():
    # colength-4 ideal (x^2, y^2, z^2, xy, xz, yz): tangent dimension 18
    boxes = frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)})
    assert corpus.hom_dimension(corpus.minimal_generators(boxes), boxes) == 18
    counts = {n: len(corpus.all_plane_partitions(n)) for n in range(1, 7)}
    assert counts == {n: corpus.PLANE_PARTITION_COUNTS[n] for n in range(1, 7)}


def _tangent_job():
    return next(j for j in corpus.job_list("points-scan", 1, 0) if j["id"].startswith("tangent"))


def _report(result):
    return json.dumps({"config": {}, "seed": 0, "result": result})


def test_verifier_rejects_a_tangent_dimension_off_by_one():
    job = _tangent_job()
    e = job["expect"]
    good = {"colength": e["colength"], "tangent_dim": e["tangent_dim"], "rank": 1,
            "parity_holds": (e["colength"] - e["tangent_dim"]) % 2 == 0}
    oracle = corpus.ScanOracle()
    assert corpus.check(job, 0, _report(good), "", oracle) is None
    bad = dict(good, tangent_dim=good["tangent_dim"] + 1)
    assert corpus.check(job, 0, _report(bad), "", oracle) is not None
    assert corpus.check(job, 1, "", "", oracle) is not None


def test_verifier_accepts_only_the_expected_abstention():
    job = next(j for j in corpus.job_list("cone-pipeline", 1, 0) if j["id"] == "fat-eval")
    oracle = corpus.ScanOracle()
    reason = "inconclusive: a contributing cone component has uncertified primality\n"
    assert corpus.check(job, 2, "", reason, oracle) is None
    # argparse rejects a command line with exit code 2 as well
    usage = "usage: conesign [-h]\nconesign: error: unrecognized arguments: --x\n"
    assert corpus.check(job, 2, "", usage, oracle) is not None
    assert corpus.check(job, 2, "", "inconclusive: bound exceeded\n", oracle) is not None
    assert corpus.check(job, 2, _report({}), reason, oracle) is not None


def test_verifier_rejects_a_wrong_cycle_coefficient():
    job = next(j for j in corpus.job_list("cone-pipeline", 1, 0) if j["id"] == "axes-cycle")
    e = job["expect"]
    n = len(e["names"])

    def prime_text(fixed):
        moved = corpus.coordinate_prime(fixed, e["perm"], [int(s) for s in e["shift"]])
        return [corpus.to_text({**{tuple(1 if j == i else 0 for j in range(n)): c
                                   for i, c in enumerate(row[:n]) if c},
                                **({(0,) * n: row[n]} if row[n] else {})}, e["names"])
                for row in moved]

    terms = [{"coeff": c, "prime": prime_text(f)} for c, f in e["terms"]]
    oracle = corpus.ScanOracle()
    assert corpus.check(job, 0, _report({"terms": terms}), "", oracle) is None
    terms[-1]["coeff"] += 1
    assert corpus.check(job, 0, _report({"terms": terms}), "", oracle) is not None


def test_every_pass_runs_in_a_fresh_worker_one_at_a_time(tmp_path, monkeypatch):
    spawned = []
    real = subprocess.Popen

    def popen(*args, **kwargs):
        assert all(p.poll() is not None for p in spawned), "a worker is still alive"
        proc = real(*args, **kwargs)
        spawned.append(proc)
        return proc

    monkeypatch.setattr(run.subprocess, "Popen", popen)
    result = run.run("points-scan", 5, 0.0, False, tmp_path / "work", log=lambda *_: None)
    assert result["correct"] and result["failed"] == 0
    assert len(spawned) == run.MIN_PASSES
    assert len({p.pid for p in spawned}) == len(spawned)
    assert all(p.returncode == 0 for p in spawned)
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_recorder_rebinds_and_restores_every_name():
    import conesign  # noqa: F401
    import conesign.cli  # noqa: F401

    modules = [m for name, m in sys.modules.items() if name.startswith("conesign")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    gb = conesign.ideals.IdealPresentation.gb
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert conesign.ideals.buchberger is not before[("conesign.groebner", "buchberger")]
        assert conesign.ideals.buchberger is conesign.groebner.buchberger
        assert conesign.buchberger is conesign.groebner.buchberger
        assert conesign.ideals.IdealPresentation.gb is not gb
        R = conesign.ring("x, y")
        conesign.ideal(R, "x^2, x*y").gb()
    finally:
        rec.restore()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert conesign.ideals.IdealPresentation.gb is gb
    names = {s[0] for s in rec.spans}
    assert {"ideals.gb", "groebner.buchberger", "poly.parse_generators"} <= names


def test_recorder_counts_the_calls_that_reach_sympy_factor_list():
    import sympy

    import conesign.cli  # noqa: F401

    factor_list = sympy.factor_list
    rec = spans.SpanRecorder()
    rec.install()
    try:
        R = conesign.ring("x, y")
        f = conesign.parse_polynomial
        for text in ("x^2 - y^2", "x*y", "x^3 + y^3", "3"):
            conesign.factor.factor_polynomial(f(text, R))
    finally:
        rec.restore()
    assert sympy.factor_list is factor_list
    agg = spans.aggregate(rec.spans)
    # a single term and a constant are factored without sympy
    assert (agg["factor.calls"], agg["factor.sympy_calls"]) == (4, 2)


def test_recorder_wraps_a_module_right_after_its_first_import(tmp_path, monkeypatch):
    (tmp_path / "late_module.py").write_text("def f():\n    return 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    rec = spans.SpanRecorder()
    seen = []
    rec.when_imported("late_module", lambda m: seen.append(m.f()))
    try:
        assert seen == []
        import late_module  # noqa: F401
        assert seen == [1]
    finally:
        rec.restore()
        sys.modules.pop("late_module", None)
    assert not any(isinstance(h, spans._AfterImport) for h in sys.meta_path)


def test_self_time_subtracts_children():
    fake = [("job", 0.0, 10.0, -1, 0, None),
            ("ideals.gb", 1.0, 5.0, 0, 0, None),
            ("groebner.buchberger", 2.0, 4.0, 1, 0, {"char": 0, "reduced": True}),
            ("ideals.gb", 6.0, 7.0, 0, 0, None)]
    assert spans.self_times(fake) == [5.0, 2.0, 2.0, 1.0]
    agg = spans.aggregate(fake)
    assert agg["ideals.gb.calls"] == 2
    assert agg["ideals.gb.cache_hit_ratio"] == 0.5
    assert agg["groebner.buchberger.reduced_input_ratio"] == 1.0
    assert agg["ideals.self_s"] == 3.0
    assert agg["job.self_s"] == 5.0
    extra = {"factor.import_s", "trace.overhead_ratio", "trace.pass_s.traced",
             "trace.pass_s.untraced"}
    assert set(agg) | extra == set(spans.PER_LAYER)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(corpus.WORKLOADS)


def test_verifier_rejects_report_bytes_that_differ_from_the_recorded_hash():
    job = _tangent_job()
    e = job["expect"]
    stdout = _report({"colength": e["colength"], "tangent_dim": e["tangent_dim"], "rank": 1,
                      "parity_holds": (e["colength"] - e["tangent_dim"]) % 2 == 0})
    report = {"jobs": [{"id": job["id"], "rc": 0, "stdout": stdout, "stderr": ""}]}
    oracle = corpus.ScanOracle()
    assert run.verify([job], report, oracle, None) == [None]
    assert run.verify([job], report, oracle, {job["id"]: "0" * 64}) != [None]
