"""umbel-lab benchmark: seeded workloads through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Workloads are ``campaign``, ``tree`` and ``extremal`` (see README.md).  One
process runs one workload, single-threaded and closed-loop: each job starts
when the previous one returns.  A run is a fixed number of passes over the
workload's job list, chosen from ``--seconds``; every job's output is checked
after its pass, outside the timed region.  Times are reported at the
reference machine speed (see calibrate.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every other pass is traced and the line carries the per-layer
metrics (see tracing.py).  Human-readable lines come before it, and the full
record (environment, per-job times, failures, spans) is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Wall time of one pass over each job list at the seed commit on the
# reference machine (2-core Xeon).  A run makes round(seconds / this) passes,
# at least MIN_PASSES, so the same seed and --seconds always do the same
# work and give the same job count on every commit.
NOMINAL_PASS_S = {"campaign": 0.85, "tree": 9.0, "extremal": 1.5}
MIN_PASSES = 4
SETUP_PROBES = 5
DEADLINE_S = 150.0     # start no new pass after this; keeps a run < 180 s
TAIL_BEYOND = 10       # job_tail_s: highest percentile with 10 jobs beyond


def bootstrap() -> None:
    """Pin BLAS threads before numpy loads and put the checkout's sources
    first on the path.  Exits non-zero when there are no sources to run."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "umbellab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no umbellab sources under {src}")
    sys.path.insert(0, str(src))
    import umbellab
    if Path(umbellab.__file__).resolve().parent != src / "umbellab":
        sys.exit(f"perfbench: imported umbellab from {umbellab.__file__}")


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs
    above it (nearest rank); the maximum when there are too few jobs."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# Environment record


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(str(ROOT / ".git" / ref))
        if not sha:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or None
    return head or None


def _source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "umbellab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(Path(base).glob("index*")):
        level, kind = _read(f"{entry}/level"), _read(f"{entry}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{entry}/size")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Set-up


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh-process set-up time: interpreter start, import umbellab and
    generate the workload's inputs, measured SETUP_PROBES times.  Returns
    (raw, reference-speed) seconds."""
    import calibrate
    raw, scaled = [], []
    before = calibrate.kernel_seconds()
    for i in range(SETUP_PROBES):
        workdir = OUT / "work" / f"probe-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(workdir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60)
        raw.append(time.perf_counter() - start)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode:
            sys.exit("perfbench: set-up probe failed:\n"
                     + proc.stderr.decode(errors="replace"))
        after = calibrate.kernel_seconds()
        scaled.append(calibrate.scale(raw[-1], before, after))
        before = after
    return raw, scaled


# ---------------------------------------------------------------------------
# Passes


def run_pass(jobs, pass_index, tracer=None, install=None):
    """Run one job list in order.  Returns (job times, kernel times,
    outcomes): the calibration kernel is timed before the first job and
    after each job, and an outcome is None for a passing job or the failure
    message."""
    import calibrate
    patches = install() if install else None
    times, kernel, results = [], [calibrate.kernel_seconds()], []
    try:
        for j, job in enumerate(jobs):
            if job.prep:
                job.prep()
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.job = f"{pass_index}.{j}"
                    tracer.enter("job", True)
                    try:
                        result = (job.run(), None)
                    finally:
                        tracer.exit()
                else:
                    result = (job.run(), None)
            except Exception as exc:  # a raising job is a failed job
                result = (None, f"raised {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
            results.append(result)
            kernel.append(calibrate.kernel_seconds())
    finally:
        if patches:
            patches.restore()
    return times, kernel, [_check(job, out, err)
                           for job, (out, err) in zip(jobs, results)]


def _check(job, out, err):
    from workloads import CheckFailed
    if err is not None:
        return f"{job.kind}: {err}"
    try:
        job.check(out)
    except (CheckFailed, LookupError, OSError, TypeError, ValueError) as exc:
        return f"{job.kind}: {type(exc).__name__}: {exc}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "tree", "extremal"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    if args.setup_probe:
        import workloads
        workloads.Workload(args.workload, args.seed, args.workdir)
        return 0

    began = time.perf_counter()
    import calibrate
    calibrate.select("setup")
    raw_setup, setup_times = measure_setup(args)
    calibrate.select(args.workload)

    import umbellab
    import tracing
    import workloads
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.Workload(args.workload, args.seed, str(workdir))
        record = measure(args, wl, umbellab, tracing, began)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_times"], record["raw_setup_times"] = setup_times, raw_setup
    record["env"] = environment(args)
    return report(args, record, statistics.median(setup_times))


def measure(args, wl, umbellab, tracing, began) -> dict:
    """Run the passes.  Job times are kept raw and at reference speed; a
    pass's wall time is the sum of its job times, as the jobs run back to
    back but for the calibration kernel between them."""
    import calibrate
    passes = passes_for(args.workload, args.seconds)
    tracer = tracing.Tracer() if args.trace else None
    rec = {"passes": passes, "walls": [], "traced_walls": [], "raw_walls": [],
           "job_times": [], "raw_job_times": [], "job_kinds": [],
           "kernel_s": [], "traced_kernel_s": [], "attempted": 0,
           "failures": [], "tracer": tracer}
    for i in range(passes):
        if time.perf_counter() - began > DEADLINE_S:
            break
        traced = bool(args.trace) and i % 2 == 1
        jobs = wl.jobs(i)
        if traced:
            tracer.active = True
            raw, kernel, outcomes = run_pass(
                jobs, i, tracer, lambda: tracing.install(tracer, umbellab))
            tracer.active = False
        else:
            raw, kernel, outcomes = run_pass(jobs, i)
        scaled = [calibrate.scale(t, a, b)
                  for t, a, b in zip(raw, kernel, kernel[1:])]
        rec["traced_walls" if traced else "walls"].append(sum(scaled))
        if not traced:
            rec["raw_walls"].append(sum(raw))
            rec["job_times"] += scaled
            rec["raw_job_times"] += raw
            rec["job_kinds"] += [job.kind for job in jobs]
        rec["traced_kernel_s" if traced else "kernel_s"] += kernel
        rec["attempted"] += len(jobs)
        rec["failures"] += [f for f in outcomes if f]
    rec["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    return rec


def report(args, record, setup_s) -> int:
    import calibrate
    import tracing
    attempted, failed = record["attempted"], len(record["failures"])
    wall_s = statistics.median(record["walls"])
    if args.trace:
        overhead = statistics.median(record["traced_walls"]) / wall_s - 1
        speed = (calibrate.reference_s()
                 / statistics.median(record["traced_kernel_s"]))
        metrics = tracing.layer_metrics(record["tracer"], overhead, speed)
    else:
        tail_s, pct = tail(record["job_times"])
        record["job_tail_percentile"] = pct
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "job_p50_s": (statistics.median(record["job_times"]), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
    env = record["env"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(record['walls']) + len(record['traced_walls'])} "
          f"jobs={attempted} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"L2={env['l2']} L3={env['l3']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['git_commit'] or env['source_sha256']}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = (f"  (p{record['job_tail_percentile']:.1f} of "
                    f"{len(record['job_times'])} jobs)")
        print(f"# {name:36s} {value:.6g} {unit}{note}")
    print(f"# {'failed_frac':36s} {failed / attempted:.6g} ratio"
          f"  ({failed} of {attempted} jobs)")
    print(f"# times are at reference speed; raw medians: set-up "
          f"{statistics.median(record['raw_setup_times']):.6g} s, pass "
          f"{statistics.median(record['raw_walls']):.6g} s, job "
          f"{statistics.median(record['raw_job_times']):.6g} s; calibration "
          f"kernel {statistics.median(record['kernel_s']):.6g} s")
    for msg in record["failures"][:10]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    tracer = record.pop("tracer")
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    record["failed_frac"] = failed / attempted
    if tracer is not None:
        record["trace"] = tracer.to_json()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
