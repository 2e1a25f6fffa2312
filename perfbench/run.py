"""duropoly benchmark: one workload through the real CLI entry point.

    python3 perfbench/run.py --workload solve-grid --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout.  Jobs call `duropoly.cli.main(argv)` in
this single-threaded process as a closed loop with one client: each job
starts when the previous one returns.  The job list repeats until the time
budget is spent; every job's outputs, written to a temporary directory under
perfbench/results/, are checked.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics of BENCHMARK.json; with
--trace 1 the package's public functions are wrapped (see tracing.py) and it
holds the per-layer metrics instead.  A result file with the environment
and the figures that do not fit BENCHMARK.json goes to perfbench/results/.
"""
from __future__ import annotations

import os

# single-threaded: keep numerical libraries to one thread before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 9
SETUP_CODE = "import time; t = time.perf_counter(); import duropoly.cli; print(time.perf_counter() - t)"
# a solve run before timing so that lazily loaded modules are in memory
WARMUP_ARGV = ["solve", "--v-low", "1", "--v-high", "2", "--delta", "0.8", "--mu0", "0.6"]
PICK_EVERY = 0.15  # seconds between CPU probes
PROBE_LOOP = 20_000  # about 2 ms of bytecode
# job_tail_s is the highest percentile with this many jobs beyond it
TAIL_BEYOND = 10


class SetupClock:
    """Times fresh interpreters importing duropoly.cli, spread over the run.

    The sandbox's CPU speed drifts over seconds, so samples taken back to
    back would all see one speed; the median of spread samples does not.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.samples: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        self.samples.append(float(proc.stdout.strip()))

    def catch_up(self, elapsed: float) -> None:
        """Take the samples due by this point of the run."""
        while len(self.samples) < SETUP_RUNS * min(1.0, elapsed / self.seconds):
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.samples)


class CpuPicker:
    """Moves this process to the CPU that runs a short fixed loop fastest.

    On a shared host one CPU of the sandbox often runs 1.5x slower than the
    other for a few seconds at a time, and the scheduler does not move a
    busy process away from it.  Picking the faster CPU every PICK_EVERY
    seconds, between jobs, keeps job times closer to the machine's speed.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -PICK_EVERY

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        return time.perf_counter() - t0

    def pick(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) > 1 and now - self.last >= PICK_EVERY:
            os.sched_setaffinity(0, {min(self.cpus, key=self._probe)})
            self.last = now

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def run_job(cli, job, out: Path):
    """Time one CLI call, then check its outputs: (seconds, work, error)."""
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main(job.command(out))
    except Exception as exc:  # a job that raises is a failed job, not a benchmark error
        return time.perf_counter() - t0, 0, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        return seconds, job.check(job, out, rc, captured.getvalue()), None
    except Exception as exc:  # includes CheckFailed; any check error fails the job
        return seconds, 0, f"check: {type(exc).__name__}: {exc}"


def run_passes(cli, jobs, seconds: float, tmp: Path, tracer=None, setup=None):
    """Repeat the job list while another pass fits in the time budget."""
    passes = []
    picker = CpuPicker()
    start = time.perf_counter()
    while True:
        if setup is not None:
            setup.catch_up(time.perf_counter() - start)
        t_pass = time.perf_counter()
        if tracer is not None:
            tracer.begin_pass(len(passes))
        rows = []
        for j, job in enumerate(jobs):
            out = tmp / f"{len(passes)}-{j}"
            if tracer is not None:
                tracer.job = f"{len(passes)}:{j}"
            picker.pick()
            rows.append(run_job(cli, job, out))
            shutil.rmtree(out, ignore_errors=True)
        passes.append(rows)
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            picker.release()
            return passes


def fastest(passes) -> list[float]:
    """Each job's fastest repetition in the run.

    The jobs are deterministic, while the CPU speed of a shared sandbox swings
    by up to 2x for seconds at a time; a median over one run's passes keeps
    that noise, the fastest repetition of each job does not.
    """
    return [min(seconds) for seconds in zip(*([r[0] for r in rows] for rows in passes))]


def end_to_end(jobs, passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the figures that only some workloads support."""
    per_job = {}
    for rows in passes:
        for job, (seconds, _, error) in zip(jobs, rows):
            if error is None:
                per_job.setdefault(job.key, []).append(seconds)
    wall = sum(fastest(passes))  # the job list, each job at its fastest
    # latency of the jobs that succeed; of all jobs when none does
    latency = [min(v) for v in per_job.values()] or fastest(passes)
    work = statistics.median(sum(r[1] for r in rows if r[2] is None) for rows in passes)
    failed = sum(r[2] is not None for rows in passes for r in rows)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "job_p50_s": statistics.median(latency),
        "work_per_s": work / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    latencies = sorted(s for v in per_job.values() for s in v)
    extra = {"passes": len(passes), "jobs_per_pass": len(jobs), "attempted": len(jobs) * len(passes),
             "failed": failed, "failed_frac": failed / (len(jobs) * len(passes)),
             "work_per_pass": work, "successful_job_samples": len(latencies),
             "pass_wall_s": [sum(r[0] for r in rows) for rows in passes], "job_seconds": per_job}
    if len(latencies) >= 10 * TAIL_BEYOND:
        k = len(latencies) - TAIL_BEYOND - 1
        extra["job_tail_s"] = latencies[k]
        extra["job_tail_percentile"] = 100.0 * (k + 1) / len(latencies)
    return metrics, extra


def environment(seed: int, traced: bool) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "duropoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "traced": traced,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "duropoly" / "cli.py").is_file():
        print(f"perfbench: no duropoly package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    RESULTS.mkdir(exist_ok=True)
    setup = None if args.trace else SetupClock(args.seconds)
    sys.path.insert(0, str(SRC))
    import duropoly.cli as cli
    import tracing

    jobs = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with contextlib.suppress(Exception):  # a broken program shows in the jobs
                cli.main(WARMUP_ARGV + ["--out", str(Path(tmp) / "warmup")])
        with tracer.installed() if tracer else contextlib.nullcontext():
            passes = run_passes(cli, jobs, args.seconds, Path(tmp), tracer, setup)

    setup_s = 0.0 if setup is None else setup.median()
    metrics, extra = end_to_end(jobs, passes, setup_s)
    if tracer is not None:
        per_pass = tracer.pass_metrics()
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.wall_s"] = sum(fastest(passes))
        tracer.write_spans(RESULTS / f"{tag}-spans.jsonl")
    names = [m["name"] for m in wanted]
    if set(metrics) != set(names):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    unexpected = [(job.key, r[2]) for rows in passes for job, r in zip(jobs, rows)
                  if r[2] is not None and not job.known_bad]
    known = sorted({job.key for rows in passes for job, r in zip(jobs, rows)
                    if r[2] is not None and job.known_bad})
    result = {
        "correct": not unexpected,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "environment": environment(args.seed, bool(args.trace)),
              "result": result, "extra": extra, "known_bad_failed": known,
              "unexpected_failures": sorted(set(unexpected))}
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {extra['passes']} passes of "
          f"{extra['jobs_per_pass']} jobs, failed_frac {extra['failed_frac']:.4f}")
    for name, error in sorted(set(unexpected)):
        print(f"  UNEXPECTED FAILURE {name}: {error}")
    if "job_tail_s" in extra:
        print(f"  job_tail_s {extra['job_tail_s']:.6g} s (p{extra['job_tail_percentile']:.2f} of "
              f"{extra['successful_job_samples']} successful jobs)")
    for m in wanted:
        if not args.trace or m["name"].count(".") == 1:
            print(f"  {m['name']:<24} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
