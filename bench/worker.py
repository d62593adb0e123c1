"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py JOBS_JSON TRACE
       python3 bench/worker.py import-probe

Imports conesign.cli, which pulls in what the package imports at module
level, and the benchmark's span recorder; prints "ready" (run.py times
set-up up to that line), then runs every job of JOBS_JSON in order through
the package's public entry points with stdout and stderr captured, and
prints one JSON
line with each job's exit code, report and latency, the time of the
calibration kernel before the first job and after each job, the peak
resident memory and, when TRACE is 1, the recorded spans.  Jobs are timed
after the import, so lazy set-up that a one-shot CLI call pays stays
inside the timed pass: a module the package imports on first use is
imported, and paid for, by the job that first uses it.

With import-probe it instead times `import sympy` in this fresh
interpreter, the per-layer metric factor.import_s, and prints it with a
calibration time as one JSON line.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_job(job):
    """Exit code of one job; its report goes to the captured stdout."""
    import conesign.cli as cli

    if "quot" not in job:
        return cli.main(job["argv"])
    # quot_tangent_dimension has no subcommand: call it as a library user would
    from conesign.groebner import ModuleVector
    from conesign.hilb import quot_tangent_dimension  # rebound when traced
    from conesign.poly import parse_polynomial, ring

    spec = job["quot"]
    rng = ring(spec["ring"])
    vectors = [ModuleVector(tuple(parse_polynomial(t, rng) for t in v))
               for v in spec["vectors"]]
    report = quot_tangent_dimension(vectors, spec["rank"])
    sys.stdout.write(json.dumps({"result": report.to_json_dict()}, sort_keys=True) + "\n")
    return 0


# 18 terms with small rational coefficients: a product of two of these is
# the kind of exact arithmetic the package spends its time on
CAL_POLY = {(a, b, c): Fraction(a + 2 * b + 3 * c + 1, 7 - a)
            for a in range(3) for b in range(3) for c in range(2)}


def calibrate(rounds=20):
    """Seconds for a fixed piece of exact polynomial arithmetic.

    It imports nothing and shares no code with the package, so it leaves
    the worker's peak memory alone.  On a shared host the machine's speed
    moves by up to 2x within minutes, and this kernel moves with it, so
    timing it between jobs lets run.py scale each job's time to a
    reference speed.
    """
    enabled = gc.isenabled()
    gc.disable()  # a collection here would time the job's garbage, not the host
    start = time.perf_counter()
    for _ in range(rounds):
        square = {}
        for m1, c1 in CAL_POLY.items():
            for m2, c2 in CAL_POLY.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                square[m] = square.get(m, 0) + c1 * c2
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def import_probe():
    t0 = time.perf_counter()
    import sympy  # noqa: F401
    import_s = time.perf_counter() - t0
    return {"import_s": import_s, "cal_s": calibrate()}


def main(argv):
    if argv[1:] == ["import-probe"]:
        sys.stdout.write(json.dumps(import_probe()) + "\n")
        return 0
    jobs_path, trace = argv[1], argv[2] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import conesign.cli  # noqa: F401
    from spans import SpanRecorder

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    jobs = json.loads(Path(jobs_path).read_text())
    recorder = SpanRecorder()
    if trace:
        recorder.install()
    runner = recorder.wrap("job", run_job) if trace else run_job
    results = []
    cal_s = [calibrate()]
    try:
        for i, job in enumerate(jobs):
            recorder.job = i
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = runner(job)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    rc = None
                    err.write(traceback.format_exc())
            results.append({"id": job["id"], "rc": rc, "stdout": out.getvalue(),
                            "stderr": err.getvalue()[-4000:],
                            "s": time.perf_counter() - t})
            cal_s.append(calibrate())
    finally:
        recorder.restore()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps({"cal_s": cal_s,
                                 "peak_rss_mb": peak_kb / 1024, "jobs": results,
                                 "spans": recorder.spans}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
