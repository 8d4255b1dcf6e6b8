"""Benchmark for henneberg: two seeded closed-loop workloads, one client.

Run one workload (the form automated runs use; the last stdout line is
the result as JSON):

    python3 bench/run.py --workload mesh_bjorling --seed 1 --seconds 55 --trace 0

Run every workload, untraced and traced, each in its own process, and print
all metrics with units, sample counts and the tracing overhead:

    python3 bench/run.py --seed 1 --seconds 55

README.md beside this file lists the workloads, the metrics and which layer
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("mesh_bjorling", "period_solve")

#: fresh interpreters timed for setup_s before the timed passes and again
#: after them (plus one untimed first, to fill the bytecode cache, which
#: every later CLI invocation finds warm)
IMPORT_SAMPLES = 5

END_TO_END = ("setup_s", "jobs_per_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb", "ok_rate")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_times(samples: int, fill_cache: bool = False) -> list[float]:
    """Wall times in s for fresh interpreters to import henneberg.cli."""
    cmd = [sys.executable, "-c", "import henneberg.cli"]
    times = []
    for i in range(samples + fill_cache):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if i or not fill_cache:
            times.append(time.perf_counter() - t0)
    return times


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def provenance(seed: int) -> dict:
    import mpmath
    import numpy
    from henneberg.period import _thread_count

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "hf_threads": _thread_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "seed": seed,
    }


#: a calibration runs before a job when this long has passed since the last
CALIBRATE_EVERY_S = 0.5

#: time of one calibration on a quiet shared 2-vCPU virtual machine; a job's
#: calibrated time is its wall time scaled by this over the calibrations
#: around it
REFERENCE_MS = 15.0

_rng = np.random.default_rng(0)
_CAL_SORT = _rng.random(100_000)
_CAL_BIG = _rng.random((2, 1_000_000))
_CAL_ROWS = _rng.random((3000, 3))
del _rng


def calibrate() -> float:
    """Wall time in ms of a fixed computation that does the kinds of work
    the jobs do: an interpreter loop, a numpy sort, elementwise numpy on
    arrays larger than the caches, and float formatting.  It measures how
    fast the machine runs at the moment, not the program."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(15_000):
        total += (i * 0.5) ** 0.5
    np.sort(_CAL_SORT)
    np.sqrt(_CAL_BIG[0] * _CAL_BIG[0] + _CAL_BIG[1])
    "\n".join("v %.17g %.17g %.17g" % tuple(row) for row in _CAL_ROWS)
    return (time.perf_counter() - t0) * 1e3


def play(jobs, rng: random.Random, seconds: float, tracer=None):
    """Replay the deck in seeded orders for about ``seconds``.

    Passes are whole, so every run has the same mix; another pass starts
    while the run would end nearer to ``seconds`` with it than without.
    Calibrations run between jobs, at most CALIBRATE_EVERY_S apart, and
    once after the last job.  Returns (slot, outcome, calibration_ms)
    triples, slot being the job's index in the deck and calibration_ms the
    mean of the calibrations just before and just after the job, and the
    number of passes.
    """
    from workloads import run_job

    played = []  # (slot, outcome, index of the calibration before it)
    calibrations = []
    t0 = last = time.perf_counter()
    passes = 0
    while True:
        for slot in rng.sample(range(len(jobs)), len(jobs)):
            if not calibrations or time.perf_counter() - last >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                last = time.perf_counter()
            played.append((slot, run_job(jobs[slot], tracer), len(calibrations) - 1))
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / passes >= seconds:
            break
    calibrations.append(calibrate())
    return [(slot, o, (calibrations[i] + calibrations[i + 1]) / 2)
            for slot, o, i in played], passes


def slot_times(played, calibrated: bool = True) -> np.ndarray:
    """Each deck slot's median job time over the passes, in ms.

    Calibrated, a job's time is its wall time times REFERENCE_MS over the
    calibrations around it.  The shared machine's speed drifts by up to
    1.6x within minutes as other tenants come and go; the calibrated time
    follows the program and not the drift (see README.md).
    """
    times: dict[int, list[float]] = {}
    for slot, o, cal_ms in played:
        times.setdefault(slot, []).append(o.ms * REFERENCE_MS / cal_ms if calibrated else o.ms)
    return np.array([statistics.median(times[slot]) for slot in sorted(times)])


def harrell_davis(values: np.ndarray, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution, in place of the one or two
    order statistics that linear interpolation uses, so that the noise of
    one deck slot's time is spread over its neighbours.
    """
    import mpmath

    x = np.sort(values)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = [float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True))
               for i in range(n)]
    return float(np.dot(weights, x))


def single_thread_reference(workload) -> dict:
    """Self time of the search layer over one deck's search jobs, with the
    default pool and with HF_THREADS=1, alternating (informational)."""
    from tracing import Tracer
    from workloads import run_job

    import henneberg.cli

    saved = os.environ.get("HF_THREADS")
    self_ms = {"default": 0.0, "1": 0.0}
    try:
        for job in workload.search_jobs():
            for threads in self_ms:
                _set_env("HF_THREADS", saved if threads == "default" else threads)
                tracer = Tracer()
                tracer.wrap(henneberg.cli, "brute_search_m1", "period.brute_search_m1")
                try:
                    run_job(job, tracer)
                finally:
                    tracer.restore()
                self_ms[threads] += tracer.layer_totals()["period.brute_search_m1"]["self_ms"]
    finally:
        _set_env("HF_THREADS", saved)
    return self_ms


def _set_env(key: str, value: str | None):
    if value is None:
        os.environ.pop(key, None)
    else:
        os.environ[key] = value


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    from tracing import Tracer, install, layer_metrics
    from workloads import WORKLOADS, run_job

    rng = random.Random(seed)
    # setup_s is sampled on both sides of the timed passes, so that one
    # slow spell of the machine does not set it; it is not calibrated (see
    # README.md)
    setup_times = [] if trace else import_times(IMPORT_SAMPLES, fill_cache=True)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](rng, str(work), small)
        for job in workload.warmup():
            run_job(job)
        tracer = None
        if trace:
            tracer = Tracer()
            workload.tracer = tracer
            install(tracer)
        t0 = time.perf_counter()
        try:
            played, passes = play(workload.jobs, rng, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        wall_s = time.perf_counter() - t0
        if not trace:
            setup_times += import_times(IMPORT_SAMPLES)
        threads_ref = single_thread_reference(workload) if trace and name == "period_solve" else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for _, o, _ in played]
    slot_ms = slot_times(played)
    jobs_per_s = len(slot_ms) / (slot_ms.sum() / 1e3)
    failed = [o for o in outcomes if o.failed]
    result = {
        "workload": name,
        "trace": int(trace),
        "provenance": provenance(seed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "wrong": sum(o.wrong is not None for o in outcomes),
        "passes": passes,
        "deck_jobs": len(slot_ms),
        "wall_s": wall_s,
        "failures": _failure_summary(failed),
        "kinds": _kind_summary(outcomes),
        "jobs": [[slot, o.kind, round(o.ms, 3), round(cal_ms, 4)] for slot, o, cal_ms in played],
    }
    cal = [cal_ms for _, _, cal_ms in played]
    raw_ms = slot_times(played, calibrated=False)
    result["wall_clock"] = {
        "calibration_ms": {"min": min(cal), "median": statistics.median(cal), "max": max(cal)},
        "jobs_per_s": len(raw_ms) / (raw_ms.sum() / 1e3),
        "job_ms_p50": harrell_davis(raw_ms, 0.5),
        "job_ms_p90": harrell_davis(raw_ms, 0.9),
    }
    if trace:
        metrics = layer_metrics(tracer, passes)
        metrics["trace.jobs_per_s"] = (jobs_per_s, "1/s")
        metrics["trace.spans"] = (len(tracer.spans) / passes, "count/deck")
        ref = threads_ref or {"default": 0.0, "1": 0.0}
        metrics["period.brute_search_m1.ref_self_ms.threads_default"] = (ref["default"], "ms")
        metrics["period.brute_search_m1.ref_self_ms.threads_1"] = (ref["1"], "ms")
        spans_path = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json"
        tracer.write(str(spans_path))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_ms_p50": (harrell_davis(slot_ms, 0.5), "ms"),
            "job_ms_p90": (harrell_davis(slot_ms, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_rate": (1 - len(failed) / len(outcomes), "ratio"),
        }
        result["error_rate"] = len(failed) / len(outcomes)
    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    return result


def _failure_summary(failed) -> list[dict]:
    seen: dict[tuple, int] = {}
    for o in failed:
        key = (o.label, o.error or o.wrong, "error" if o.error else "wrong output")
        seen[key] = seen.get(key, 0) + 1
    return [{"job": k[0], "reason": k[1], "category": k[2], "count": n}
            for k, n in seen.items()]


def _kind_summary(outcomes) -> dict:
    kinds: dict[str, list[float]] = {}
    for o in outcomes:
        kinds.setdefault(o.kind, []).append(o.ms)
    return {k: {"jobs": len(v), "ms_median": statistics.median(v)} for k, v in sorted(kinds.items())}


def print_report(result: dict):
    """Human-readable lines; the caller prints the JSON result last."""
    print(f"# {result['workload']} trace={result['trace']}: {result['attempted']} jobs, "
          f"{result['passes']} passes over a {result['deck_jobs']}-job deck, "
          f"{result['wall_s']:.1f} s")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for kind, s in result["kinds"].items():
        print(f"  kind {kind:<24} n={s['jobs']:<5} median {s['ms_median']:.2f} ms")
    for name, m in result["metrics"].items():
        print(f"  {name:<56} {m['value']:.6g} {m['unit']}")
    if "error_rate" in result:
        print(f"  {'error_rate':<56} {result['error_rate']:.6g} "
              f"({result['failed']} of {result['attempted']} jobs)")
        print(f"  job_ms_p50 and job_ms_p90: Harrell-Davis estimates over n={result['deck_jobs']} "
              f"deck slots, each the median of {result['passes']} passes")
    wall, cal = result["wall_clock"], result["wall_clock"]["calibration_ms"]
    print(f"  uncalibrated: jobs_per_s {wall['jobs_per_s']:.6g} 1/s, "
          f"job_ms_p50 {wall['job_ms_p50']:.6g} ms, job_ms_p90 {wall['job_ms_p90']:.6g} ms; "
          f"calibration {cal['min']:.3g}/{cal['median']:.3g}/{cal['max']:.3g} ms "
          f"min/median/max (reference {REFERENCE_MS} ms)")
    for f in result["failures"]:
        print(f"  FAILED x{f['count']} ({f['category']}): {f['job']}: {f['reason']}")


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--small"] if args.small else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"error: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            rows[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\n# summary (untraced metrics)")
    for name in WORKLOAD_NAMES:
        plain, traced = rows[name, 0], rows[name, 1]
        m = plain["metrics"]
        with open(ROOT / ".bench_out" / f"{name}-seed{args.seed}-trace0.json") as fh:
            full = json.load(fh)
        line = ", ".join(f"{k}={m[k]['value']:.4g} {m[k]['unit']}" for k in END_TO_END)
        error_rate = plain["failed"] / plain["attempted"]
        overhead = 1 - traced["metrics"]["trace.jobs_per_s"]["value"] / m["jobs_per_s"]["value"]
        print(f"{name}: {plain['attempted']} jobs, percentiles over n={full['deck_jobs']} "
              f"slots x {full['passes']} passes, {line}, error_rate={error_rate:.4g} "
              f"({plain['failed']}/{plain['attempted']}), tracing overhead "
              f"{100 * overhead:.1f}% of jobs_per_s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced decks and grids, for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "henneberg" / "cli.py").is_file():
        print(f"error: no henneberg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print_report(result)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with open(ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(result, fh, indent=1)
    correct = result["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
