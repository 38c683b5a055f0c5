"""Benchmark of the newton-monodromy engine.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) in this process for
about --seconds seconds and prints, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, their times divided by the host
slowdown that hostspeed.py measures alongside; with --trace 1 the
workload runs once without and once with timing shims on the engine,
and the metrics are the per-layer ones.  The line before it is a JSON
report with the run's metadata, every end-to-end figure with its sample
count, and a digest of the spectra.  --workload all runs each workload
in its own interpreter and prints a table.

Run from the root of a checkout: the engine is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One thread for every numpy / OpenMP pool; set before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# setup_s is the median of this process's set-up and of as many fresh
# interpreters' before the timed pass and after it: the host's speed for
# set-up changes from second to second, and a median of samples taken at
# one moment moved by up to 22% between two sets of ten runs.
SETUP_PROBES = 4
TRACED_SHARE = 0.5  # share of --seconds for the untraced pass of a traced run
P90_TAIL = 10  # a p90 needs this many samples beyond it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--cases", type=int, default=None, help="cap each round at this many cases"
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0 or (args.cases is not None and args.cases < 1):
        p.error("--seconds and --cases must be positive")
    return args


def _import_engine():
    if not (SRC / "newton_monodromy" / "__init__.py").is_file():
        sys.exit(f"error: the engine's sources are not at {SRC}")
    sys.path.insert(0, str(SRC))
    import harness  # noqa: F401  (imports newton_monodromy and numpy)


def setup(args):
    """Import the engine and build the first round: the set-up a user pays."""
    t0 = time.perf_counter()
    _import_engine()
    workload = WORKLOADS[args.workload]
    rounds = workload.rounds(args.seed, args.cases)
    first = next(rounds)
    return time.perf_counter() - t0, workload, first, rounds


def setup_probe(args) -> float:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    if args.cases is not None:
        cmd += ["--cases", str(args.cases)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def steal_jiffies():
    """Host steal time of all CPUs so far, from /proc/stat (None if absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _ms_quantiles(values):
    """(p50, p90 or None, n); p90 only with P90_TAIL samples beyond it."""
    n = len(values)
    if not n:
        return None, None, 0
    ms = [v * 1e3 for v in values]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if n >= 10 * P90_TAIL else None
    return p50, p90, n


def _gmean_ms(values):
    if not values:
        return None
    return 1e3 * math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(done, setup_s, speed):
    """Every end-to-end figure as {name: {value, unit, n}}.

    A `_norm` figure is computed from each case's time divided by the
    host slowdown around that case (see hostspeed.py): ms at nominal
    host speed.  setup_s is divided by the run's slowdown, as set-ups
    run in other interpreters, before and after the timed pass.
    """
    a50, a90, an = _ms_quantiles(done.answer_s)
    v50, v90, vn = _ms_quantiles(done.validate_s)
    work = done.work_s
    rate = len(done.answer_s) / work if work else None
    norm_a, norm_v = done.normalised(speed)
    norm_work = sum(norm_a) + sum(norm_v)

    figures = {
        "answer_ms.p50": (a50, "ms", an),
        "answer_ms.p90": (a90, "ms", an),
        "answers_per_s": (rate, "1/s", an),
        "validate_ms.p50": (v50, "ms", vn),
        "validate_ms.p90": (v90, "ms", vn),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
        ),
        "setup_s": (statistics.median(setup_s) / speed.run_factor(), "s", len(setup_s)),
        "setup_s_raw": (statistics.median(setup_s), "s", len(setup_s)),
        "failed_frac": (len(done.failures) / done.attempted, "ratio", done.attempted),
        "answer_ms_norm.gmean": (_gmean_ms(norm_a), "ms", an),
        "answer_ms_norm.p50": (_ms_quantiles(norm_a)[0], "ms", an),
        "validate_ms_norm.gmean": (_gmean_ms(norm_v), "ms", vn),
        "validate_ms_norm.p50": (_ms_quantiles(norm_v)[0], "ms", vn),
        "answers_per_s_norm": (an / norm_work if norm_work else None, "1/s", an),
    }
    return {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in figures.items()}


# The end-to-end metrics every workload reports on its last line: the
# steadiest over ten seeds on a noisy host (see README.md).  The report
# line carries the others: the p50s and the rate (a p50 of the eight
# ladder cases rests on two of them, a rate on its costliest), the p90s
# (ladder never has ten samples beyond one), failed_frac (0 when all is
# well) and every raw time.
HEADLINE = (
    "answer_ms_norm.gmean",
    "validate_ms_norm.gmean",
    "peak_rss_mb",
    "setup_s",
)


def run_timed(args, workload, rounds, setup_s):
    """The untraced run: end-to-end figures, normalised by host speed."""
    import harness
    from hostspeed import HostSpeed

    speed = HostSpeed()
    speed.sample()
    done = harness.run_pass(workload, rounds, args.seconds, speed=speed)
    speed.sample()
    setup_s += [setup_probe(args) for _ in range(SETUP_PROBES)]
    figures = end_to_end(done, setup_s, speed)
    metrics = {k: {"value": figures[k]["value"], "unit": figures[k]["unit"]} for k in HEADLINE}
    report = {
        "end_to_end": figures,
        "host": {"slowdown": speed.slowdown(), "samples": len(speed.slowdowns)},
        "digest_equal": True,
    }
    return metrics, (done,), done.lines[: len(done.rounds[0])], report


def run_traced(args, workload, rounds):
    """Whole rounds without shims, then the same rounds with them.

    The overhead compares the two passes' work, each case's time divided
    by the host slowdown around it, so that a host slowdown between the
    passes is not taken for tracing cost.
    """
    import harness
    from gate import digest
    from hostspeed import HostSpeed
    from tracer import HOOKS, Tracer

    speeds = (HostSpeed(), HostSpeed())
    speeds[0].sample()
    untraced = harness.run_pass(
        workload, rounds, args.seconds * TRACED_SHARE, speed=speeds[0]
    )
    speeds[1].sample()
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_pass(
            workload, iter(untraced.rounds), float("inf"), tracer, speeds[1]
        )
    finally:
        tracer.uninstall()
    speeds[1].sample()
    work = [sum(map(sum, p.normalised(sp))) for p, sp in zip((untraced, traced), speeds)]
    metrics = tracer.metrics(work[1] / work[0] - 1 if work[0] else 0.0)
    report = {
        "work_s": {"untraced": untraced.work_s, "traced": traced.work_s},
        "trace_hooks_s": tracer.self_ns[HOOKS] / 1e9,
        "host": {"slowdown": [sp.slowdown() for sp in speeds]},
        "digest_equal": digest(untraced.lines) == digest(traced.lines),
    }
    return metrics, (untraced, traced), traced.lines, report


def run_workload(args) -> int:
    steal0 = steal_jiffies()
    t_setup, workload, first, more = setup(args)
    setup_s = [t_setup]
    if not args.trace:
        setup_s += [setup_probe(args) for _ in range(SETUP_PROBES)]

    def rounds():
        yield first
        yield from more

    t_run = time.perf_counter()
    if args.trace:
        metrics, passes, lines, extra = run_traced(args, workload, rounds())
    else:
        metrics, passes, lines, extra = run_timed(args, workload, rounds(), setup_s)
    wall = time.perf_counter() - t_run
    steal1 = steal_jiffies()

    import numpy
    from gate import digest

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "steal_jiffies": None if None in (steal0, steal1) else steal1 - steal0,
        "cases": {
            "attempted": attempted,
            "failed": failed,
            "per_round": len(first),
            "rounds": [len(p.rounds) for p in passes],
        },
        "setup_s_samples": setup_s,
        "digest": digest(lines),
        "digest_cases": len(lines),
        "failures": [f for p in passes for f in p.failures][:5],
        **extra,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0 and extra["digest_equal"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one table of every figure."""
    columns = sorted(WORKLOADS)
    rows: dict = {}
    for name in columns:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.cases is not None:
            cmd += ["--cases", str(args.cases)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        *_, report, last = done.stdout.strip().splitlines()
        figures = json.loads(report)["report"].get("end_to_end") or json.loads(last)["metrics"]
        for metric, fig in figures.items():
            rows.setdefault((metric, fig["unit"]), {})[name] = fig
    print(f"{'metric':34s} {'unit':6s}" + "".join(f"{n:>22s}" for n in columns))
    for (metric, unit), per in rows.items():
        cells = ""
        for name in columns:
            fig = per.get(name, {"value": None})
            cell = "-" if fig["value"] is None else f"{fig['value']:.6g}"
            if "n" in fig:
                cell += f" (n={fig['n']})"
            cells += f"{cell:>22s}"
        print(f"{metric:34s} {unit:6s}{cells}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(setup(args)[0])
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
