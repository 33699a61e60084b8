"""End-to-end benchmark of orbitscope CLI jobs.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 23 --trace 0

Run from the root of a checkout: the jobs use the checkout's src/ through an
explicit PYTHONPATH, and all files are written under .perfbench-work/ there
and removed at the end.

Load model: closed loop, one client.  One CLI process runs at a time and
each job is timed from spawn to exit, so interpreter start and imports are
inside the time, as users pay them on every run.  A run executes a fixed
number of rounds of the workload's jobs: the fewest that last --seconds on
a 2-CPU machine.  A fixed job mix keeps the percentiles comparable between
runs.  Set-up (writing the seeded inputs and one untimed
cold job per distinct subcommand) is repeated SETUP_REPS times and its median
reported.

--trace 1 runs one round twice, each job once untraced and once through
launcher.py, and reports the per-layer metrics of layers.py instead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 3
JOB_TIMEOUT_S = 150
# seconds one round of each workload takes on the reference machine
# (2 vCPU, Python 3.11, numpy 2.4, scipy 1.17); sizes the fixed round count
ROUND_S = {"verdicts": 21.0, "wavelets": 13.0, "transforms": 5.8}
THREAD_ENV = ("ORBITSCOPE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src  # the package is not installed; measure this checkout
    env.pop("ORBITSCOPE_THREADS", None)  # measure the program's own default
    return env


def spawn(argv, env, stdout, stderr):
    """Run one child to completion; returns (exit code, wall s, cpu s, max rss MB).

    os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would keep a
    running maximum over every child reaped so far.
    """
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env, file_actions=actions)
    signal.alarm(JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Runner:
    def __init__(self, root, workdir):
        self.src = os.path.join(root, "src")
        self.env = child_env(self.src)
        self.workdir = workdir
        self.failures = []
        self.known_gaps = set()
        self.attempted = 0

    def run(self, job, traced=False):
        """Run and check one job; returns its timing dict (None on failure)
        and, when traced, the launcher's record."""
        out, err = (os.path.join(self.workdir, f"child.{s}") for s in ("out", "err"))
        spans = os.path.join(self.workdir, "spans.json")
        if traced:
            argv = [os.path.join(HERE, "launcher.py"), spans, "--"] + job.argv
        else:
            argv = ["-m", "orbitscope.cli"] + job.argv
        self.attempted += 1
        record = None
        try:
            code, wall, cpu, rss = spawn(argv, self.env, out, err)
            with open(err, encoding="utf-8", errors="replace") as fh:
                stderr = fh.read()
            if code not in job.expect_exit:
                problems = [f"exit {code}, expected {job.expect_exit}: {stderr.strip()[-300:]}"]
            else:
                problems = job.check(job, code, stderr)
            if traced:
                with open(spans, encoding="utf-8") as fh:
                    record = json.load(fh)
                if not record["package_file"].startswith(self.src + os.sep):
                    problems.append(f"traced job imported {record['package_file']}")
        except JobTimeout:
            problems = [f"no exit within {JOB_TIMEOUT_S} s"]
        except Exception as exc:  # a malformed output is a failed job, not a crash
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            for path in [job.report, spans] + job.side_outputs:
                if path and os.path.exists(path):
                    os.remove(path)
        if problems:
            self.failures.append((job.kind, problems))
            return None, record
        if "known_gap" in job.note:
            self.known_gaps.add(f"{job.kind}: {job.note['known_gap']}")
        return {"wall": wall, "cpu": cpu, "rss": rss}, record


def tail(values):
    """Highest percentile with at least ten samples beyond it: the
    (N-10)-th smallest value.  Below 21 samples that percentile would not
    exceed the median, so the tail is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100, 0
    return ordered[n - 11], int(100 * (n - 10) / n), 10


def setup(make_workload, seed, workdir, runner, reps, **sizes):
    """Write the inputs and run the cold jobs `reps` times; returns the last
    workload and the median set-up time."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        workload = make_workload(seed, workdir, **sizes)
        for job in workload.cold:
            runner.run(job)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def environment(root):
    import numpy
    import scipy

    import orbitscope

    return {
        "orbitscope": orbitscope.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "child_PYTHONPATH": os.path.join(root, "src"),
    }


SMOKE_SIZES = {
    "verdicts": {"strata_grid": 16, "section_points": 10},
    "wavelets": {"samples": 4, "grid": 16},
    "transforms": {"n1": 256, "counts1": 32, "n2": 32, "counts2": 32},
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one round (self-check)")
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "orbitscope", "cli.py")):
        print(f"perfbench: no src/orbitscope/cli.py under {root}; "
              "run from the root of an orbitscope checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads  # imports the checkout's orbitscope for its output checks

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env_info = environment(root)
    workdir = os.path.join(root, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    runner = Runner(root, workdir)
    sizes = SMOKE_SIZES[args.workload] if args.smoke else {}
    make_workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics = traced_run(make_workload, args, workdir, runner, sizes)
        else:
            metrics = timed_run(make_workload, args, workdir, runner, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    print(f"perfbench: environment {json.dumps(env_info, sort_keys=True)}")
    for kind, problems in runner.failures:
        print(f"perfbench: FAILED {kind}: {'; '.join(problems)}")
    for gap in sorted(runner.known_gaps):
        print(f"perfbench: known gap, not gated: {gap}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{m.pop('note', '')}")
    failed = len(runner.failures)
    print(f"  {'fail_frac':44s} {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def timed_run(make_workload, args, workdir, runner, sizes):
    workload, setup_s = setup(make_workload, args.seed, workdir, runner, SETUP_REPS, **sizes)
    rounds = 1 if args.smoke else max(1, math.ceil(args.seconds / ROUND_S[args.workload]))
    results = [runner.run(job)[0] for _ in range(rounds) for job in workload.round]
    done = [r for r in results if r] or [{"wall": 0.0, "cpu": 0.0, "rss": 0.0}]
    walls = [r["wall"] for r in done]
    tail_s, pct, beyond = tail(walls)
    return {
        "jobs_per_s": {"value": len(done) / (sum(walls) or 1.0), "unit": "1/s",
                       "note": f"  ({len(done)} jobs in {rounds} rounds)"},
        "job_wall_s.p50": {"value": statistics.median(walls), "unit": "s"},
        "job_wall_s.tail": {"value": tail_s, "unit": "s",
                            "note": f"  (p{pct} of {len(walls)} jobs, {beyond} beyond it)"},
        "job_cpu_s.p50": {"value": statistics.median(r["cpu"] for r in done), "unit": "s"},
        "peak_rss_mb": {"value": max(r["rss"] for r in done), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s",
                    "note": f"  (median of {SETUP_REPS} set-ups)"},
    }


def traced_run(make_workload, args, workdir, runner, sizes):
    workload, _ = setup(make_workload, args.seed, workdir, runner, 1, **sizes)
    records, traced_walls, plain_walls = [], [], []
    out_of_band = None
    for i, job in enumerate(workload.round):
        # alternate which variant runs first, so drift does not bias the overhead
        timings = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            timing, record = runner.run(job, traced=traced)
            timings[traced] = timing
            if traced and record is not None:
                records.append(record)
        if timings[True] and timings[False]:
            traced_walls.append(timings[True]["wall"])
            plain_walls.append(timings[False]["wall"])
        out_of_band = job.note.get("out_of_band_isometry", out_of_band)
    if not records:
        records = [{"import_s": 0.0, "import_modules": 0, "spans": []}]
    return layers.per_layer(records, traced_walls, plain_walls, out_of_band)


if __name__ == "__main__":
    sys.exit(main())
