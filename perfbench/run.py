"""Benchmark hashclust on one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. A run
sets up (the imports, timed in fresh child processes, then inputs plus a
warm-up on toy inputs), repeats whole rounds of operations until their summed
time reaches ``--seconds``, checks every output, sets up again, and prints
one JSON object as its last line. Set-up and throughput report the fastest
repeat and the fastest round. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the program's public functions, reports the per-layer metrics and
writes every span to ``perfbench/out/``. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_REPEATS = 4
SETUP_REPEATS = 4
# what a child process runs to time the imports alone
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import sys; "
    "sys.path[:0] = sys.argv[1:]; import workloads; print(time.perf_counter() - start)"
)

# one BLAS thread: the process's only other threads are the wire sites
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("desk", "large", "cut", "wire"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import hashclust from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "hashclust"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no hashclust sources at {package}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hashclust

    if Path(hashclust.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: imported hashclust from {hashclust.__file__}")
    import workloads

    return workloads


def import_seconds() -> list:
    """Times to import the program and the benchmark in fresh children."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                               capture_output=True, text=True, check=True)
        times.append(float(probe.stdout.split()[-1]))
    return times


def measure(workload, seconds: float, rounds: list) -> None:
    """Whole rounds, appended to ``rounds``, until the operations' summed
    time reaches ``seconds`` (at least one round)."""
    spent = 0.0
    while not rounds or spent < seconds:
        rounds.append(workload.round())
        spent += sum(o.seconds for o in rounds[-1])


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    ops = [o for r in rounds for o in r]
    done = [o for o in ops if not o.failed]
    # per round: samples clustered over the time of every operation attempted;
    # the fastest round, since interference from the host only slows a round
    rates = [sum(o.samples for o in r) / sum(o.seconds for o in r) for r in rounds]
    attempted_samples = sum(o.attempted_samples for o in ops)
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (max(rates), "1/s"),
        "paper_bits": (statistics.fmean(o.paper_bits for o in done) if done else 0, "bits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "purity": (sum(o.purity * o.samples for o in done) / attempted_samples, "1"),
        "nmi": (sum(o.nmi for o in done) / len(ops), "1"),
    }


def one_malloc_arena() -> None:
    """glibc's M_ARENA_MAX = 1. With an arena per wire site thread the peak
    RSS kept climbing for several operations, so it depended on how many
    operations a run fitted in; operation times did not change."""
    try:
        ctypes.CDLL(None).mallopt(-8, 1)
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    one_malloc_arena()
    workloads = import_program()

    problems = []

    def set_up():
        start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed)
        warm = workloads.build(args.workload, args.seed, toy=True)
        warm.round()
        warm.verify()
        problems.extend(warm.problems)
        return time.perf_counter() - start, workload

    imports, setups = import_seconds(), []
    for _ in range(SETUP_REPEATS):
        seconds, workload = set_up()
        setups.append(seconds)

    tracer = None
    if args.trace:
        import layers

        tracer = layers.install(workloads)
    rounds = []
    try:
        measure(workload, args.seconds, rounds)
    finally:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.unpatch()
    # outside the measurement: wire's sim twin runs here, untraced
    workload.verify()
    problems += workload.problems
    # set up again after the measurement: the host's speed changes in phases
    # of several seconds, and the fastest repeat over both moments is steadier
    imports += import_seconds()
    setups += [set_up()[0] for _ in range(SETUP_REPEATS)]
    setup_s = min(imports) + min(setups)
    for problem in dict.fromkeys(problems):
        print(f"run.py: check failed: {problem}", file=sys.stderr)

    ops = [o for r in rounds for o in r]
    metrics = end_to_end(rounds, setup_s, peak_rss_mb)
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = layers.per_layer(tracer, len(ops), metrics["samples_per_s"][0])
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
