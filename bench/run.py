"""Benchmark runner for conesign.

Usage:
    python3 bench/run.py --workload {cone-pipeline,points-scan,gb-dense}
        --seed N --seconds S --trace {0,1}

Runs the workload's job list as a series of passes for about S seconds.
Each pass runs in a fresh worker interpreter (bench/worker.py); only one
worker is alive at a time.  Every answer is checked against bench/corpus.py.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics when --trace is 0, and the per-layer metrics
(from spans recorded around the package's public functions) when it is 1.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402

HASHES = HERE / "report_hashes.json"
HASH_SEED = 0
MIN_PASSES = 3
# With at most ten passes no percentile has ten samples beyond it, so
# pass_tail_s is the slowest pass.
MAX_PASSES = 10
# the minimum pass count yields after this long, so a slow program still ends
MIN_PASSES_WITHIN_S = 60
WORKER_TIMEOUT_S = 120
# Every reported time is scaled to a host on which worker.calibrate() takes
# this long (its typical time on the 2-core host the baseline was measured
# on).  The raw medians are printed beside the scaled ones.
CAL_REFERENCE_S = 0.03

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_tail_s": "s",
    "job_geomean_s": "s",
    "peak_rss_mb": "MB",
}


class Pass:
    """One worker process running one job list."""

    def __init__(self, jobs, trace, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        for job in jobs:
            for name, text in job["files"].items():
                (workdir / name).write_text(text)
        spec = workdir / "jobs.json"
        spec.write_text(json.dumps([{k: v for k, v in job.items() if k != "expect"}
                                    for job in jobs]))
        env = {k: v for k, v in os.environ.items() if k != "CONESIGN_CONFIG"}
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec), "1" if trace else "0"],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            self.setup_s = time.perf_counter() - spawned
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self.report = None
        if first.strip() == "ready" and proc.returncode == 0:
            self.report = json.loads(out.splitlines()[-1])
            cal = self.report["cal_s"]
            # a job is scaled by the kernel times just before and after it;
            # set-up by the first one, taken right after the worker is ready
            self.job_scales = [2 * CAL_REFERENCE_S / (a + b) for a, b in zip(cal, cal[1:])]
            self.setup_scale = CAL_REFERENCE_S / cal[0]
            self.job_s = [j["s"] * s for j, s in zip(self.report["jobs"], self.job_scales)]
            self.pass_s = sum(self.job_s)
        self.error = None if self.report else f"worker exited {proc.returncode}: {err[-2000:]}"
        shutil.rmtree(workdir)


def output_hash(result):
    """SHA-256 of a job's stdout followed by its stderr."""
    return hashlib.sha256((result["stdout"] + result["stderr"]).encode()).hexdigest()


def verify(jobs, report, oracle, hashes):
    """Per job: None when correct, else the reason."""
    if report is None:
        return ["worker failed"] * len(jobs)
    bases = {}
    reasons = []
    for job, res in zip(jobs, report["jobs"]):
        try:
            why = corpus.check(job, res["rc"], res["stdout"], res["stderr"], oracle, bases)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            why = f"malformed report: {exc!r}"
        want = hashes.get(job["id"]) if hashes else None
        if why is None and want and output_hash(res) != want:
            why = "report bytes differ from the recorded SHA-256"
        if why is None and res["rc"] is None:
            why = "traceback"
        if why is not None and res["stderr"].strip():
            why += " | " + res["stderr"].strip().splitlines()[-1]
        reasons.append(why)
    return reasons


def probe_import():
    """Scaled seconds for `import sympy` in a fresh interpreter of its own."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "import-probe"],
                          cwd=HERE, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["import_s"] * CAL_REFERENCE_S / probe["cal_s"]


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run(workload, seed, seconds, trace, workdir, log=print):
    oracle = corpus.ScanOracle()
    hashes = {}
    if seed == HASH_SEED and HASHES.exists():
        hashes = json.loads(HASHES.read_text()).get(workload, {})
    passes, failures = [], []
    attempted = 0
    start = time.perf_counter()
    k = 0
    # traced runs pair an untraced and a traced pass on the same job list
    while (trace and k % 2) or (
            (k < MAX_PASSES and time.perf_counter() - start < seconds)
            or (k < (2 * MIN_PASSES if trace else MIN_PASSES)
                and time.perf_counter() - start < MIN_PASSES_WITHIN_S)):
        index = k // 2 if trace else k
        traced = trace and k % 2 == 1
        jobs = corpus.job_list(workload, seed, index)
        p = Pass(jobs, traced, workdir / f"pass{k}")
        reasons = verify(jobs, p.report, oracle, hashes if index == 0 and not traced else None)
        if p.error:
            log(f"pass {k}: {p.error}")
        attempted += len(jobs)
        for job, why in zip(jobs, reasons):
            if why is not None:
                failures.append(f"pass {k} job {job['id']}: {why}")
        p.traced = traced
        passes.append(p)
        k += 1
    for line in failures[:20]:
        log(f"FAILED {line}")
    good = [p for p in passes if p.report]
    if not good:
        raise RuntimeError("no pass completed")
    log(f"host speed: calibration kernel median "
        f"{statistics.median(c for p in good for c in p.report['cal_s']):.4f} s, "
        f"reference {CAL_REFERENCE_S} s")
    if not trace:
        raw = [sum(j["s"] for j in p.report["jobs"]) for p in good]
        metrics = {
            "setup_s": statistics.median(p.setup_s * p.setup_scale for p in good),
            "pass_s": statistics.median(p.pass_s for p in good),
            "pass_tail_s": max(p.pass_s for p in good),
            "job_geomean_s": geomean(s for p in good for s in p.job_s),
            "peak_rss_mb": statistics.median(p.report["peak_rss_mb"] for p in good),
        }
        units = END_TO_END
        log(f"pass times, raw: {' '.join(f'{t:.3f}' for t in raw)}")
        log(f"pass times, scaled: {' '.join(f'{p.pass_s:.3f}' for p in good)}")
        log(f"raw medians: setup_s {statistics.median(p.setup_s for p in good):.4f} s, "
            f"pass_s {statistics.median(raw):.4f} s")
        log(f"pass_tail_s is p100 of {len(good)} passes")
    else:
        traced = [p for p in good if p.traced]
        per_pass = []
        for p in traced:
            # self times are scaled like the job their span belongs to
            scaled = [(*s[:1], s[1] * p.job_scales[s[4]], s[2] * p.job_scales[s[4]], *s[3:])
                      for s in p.report["spans"]]
            per_pass.append(spans.aggregate(scaled))
        metrics = {name: statistics.median(a[name] for a in per_pass) for name in per_pass[0]}
        pairs = [(u.pass_s, t.pass_s) for u, t in zip(passes[0::2], passes[1::2])
                 if u.report and t.report]
        metrics["factor.import_s"] = statistics.median(probe_import() for _ in traced)
        metrics["trace.overhead_ratio"] = statistics.median(t / u for u, t in pairs)
        metrics["trace.pass_s.traced"] = statistics.median(t for _, t in pairs)
        metrics["trace.pass_s.untraced"] = statistics.median(u for u, _ in pairs)
        log(f"{len(traced)} traced passes, {len(pairs)} pairs")
        units = spans.PER_LAYER
    error_rate = len(failures) / attempted
    log(f"{workload} seed={seed} passes={len(passes)} attempted={attempted} "
        f"failed={len(failures)} error_rate={error_rate:.4f}")
    for name, value in metrics.items():
        log(f"  {name:<44} {value:.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true",
                        help=f"write the SHA-256 of each pass-0 report at seed {HASH_SEED} "
                             f"to {HASHES.name} instead of checking them")
    args = parser.parse_args(argv)
    # a terminated run still kills its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "conesign" / "cli.py").is_file():
        sys.stderr.write(f"error: package source not found under {ROOT / 'src'}\n")
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.record_hashes:
            return record_hashes(args.workload, workdir)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def record_hashes(workload, workdir):
    jobs = corpus.job_list(workload, HASH_SEED, 0)
    p = Pass(jobs, False, workdir / "record")
    if p.report is None or any(verify(jobs, p.report, corpus.ScanOracle(), None)):
        sys.stderr.write("error: pass 0 is not correct; nothing recorded\n")
        return 1
    table = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    table[workload] = {j["id"]: output_hash(j) for j in p.report["jobs"]}
    HASHES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
