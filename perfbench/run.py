"""The repository benchmark: one workload per call, from a seed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload functional-bound --seed 1 \\
        --seconds 15 --trace 0

Prints a short human-readable report, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
and every span is also written as Chrome trace-event JSON under
``.perfbench/traces/``.  ``--record`` additionally writes the traced
result to ``perfbench/baseline/<workload>.json``.  Exits non-zero
without a result line when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the seed whose result digests are pinned in ``pinned.json``
DEFAULT_SEED = 0


#: glibc malloc settings for this process and every child interpreter:
#: ``mallopt`` parameter number, environment variable, value in bytes
MALLOC_SETTINGS = (
    (-3, "MALLOC_MMAP_THRESHOLD_", 32 << 20),  # M_MMAP_THRESHOLD, its maximum
    (-1, "MALLOC_TRIM_THRESHOLD_", 64 << 20),  # M_TRIM_THRESHOLD
)


def pin_runtime() -> None:
    """Fix two run-time settings that otherwise flip between runs.

    One BLAS thread, here and in every child interpreter: the program
    makes no BLAS call large enough to use a pool, and the pool's
    threads spin for 0.1 to 0.2 CPU seconds after numpy starts,
    depending on whether the host has a core free for them.

    Fixed malloc thresholds.  By default glibc serves blocks above a
    threshold with ``mmap`` and raises that threshold as such blocks are
    freed, so a process repeating the same work settles, after a few
    hundred repetitions or never, into a state without page faults.
    Warm re-runs took 12% more CPU time before it than after, and which
    state a 15-second run saw varied from run to run.  The values set
    here are that settled state from the start.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: leave malloc alone
        mallopt = None
    for param, variable, value in MALLOC_SETTINGS:
        os.environ[variable] = str(value)
        if mallopt is not None:
            mallopt(param, value)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the traced result to perfbench/baseline/")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_runtime()
    # Child interpreters and the daemon's socket path are relative to
    # the checkout root.
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {metric["name"]: metric["unit"] for metric in spec[section]}

    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(
        root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
        trace_out=state / "traces" / f"{args.workload}-seed{args.seed}.json",
    )
    try:
        m = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pinned = json.loads((HERE / "pinned.json").read_text())
    if args.seed == DEFAULT_SEED and args.workload in pinned["digests"]:
        m.check(m.digest == pinned["digests"][args.workload],
                f"digest {m.digest[:16]} differs from the pinned one")

    # A layer a workload does not load reads 0; an end-to-end metric
    # must always be measured.
    values = ({name: m.layers.get(name, 0.0) for name in wanted}
              if args.trace else m.metrics)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in wanted.items()}
    print(f"perfbench {args.workload} seed={args.seed} repro={repro.__version__}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'failed_frac':34s} {m.failed / max(m.attempted, 1):14.6g} "
          f"({m.failed} of {m.attempted})")
    print(f"  digest {m.digest}")
    for problem in m.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": m.failed == 0,
        "attempted": max(m.attempted, 1),
        "failed": m.failed,
        "metrics": metrics,
    }
    if args.record:
        out = HERE / "baseline" / f"{args.workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "version": repro.__version__, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "digest": m.digest, **result,
        }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
