"""The benchmark's four workloads.

Each workload builds its inputs from the seed, sets up, repeats its
timed part for the requested number of seconds, checks every output,
and returns a :class:`Measurement`.  The three compute workloads run in
this process with ``jobs=1``; ``serve-overlap`` starts ``repro serve``
as a child process with two workers and drives it over two client
connections.  Every run starts from an empty result cache and trace
store.

Times are CPU seconds, not wall seconds.  The benchmark runs on a few
virtual CPUs of a shared host, and there a fixed loop of Python code
varies up to 3x in wall time, for 5 to 30 s at a time, while the
hypervisor runs other guests on the same cores.  That lost time is
steal: the guest kernel accounts it apart from every task, so a
process's CPU time counts only the cycles the program itself ran.
``run_cpu_s`` is the median CPU time of a run's repetitions of the
timed part; the wall time of each repetition is kept as the per-layer
``latency.*`` metrics.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks
from spans import LAYERS, Tracer

#: the five paper designs
PAPER_DESIGNS = ("baseline", "dganger", "truncate", "ZeroAVR", "AVR")
#: timed repetitions a workload makes at least, however long they take
MIN_REPEATS = 3
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: serve-overlap: submissions per client and window, and the distinct
#: specs one window draws them from
SUBMISSIONS_PER_CLIENT = 20
DISTINCT_SPECS = 72
#: serve-overlap: distinct specs re-run one-shot to compare with the daemon
ONE_SHOT_SAMPLES = 3
#: per-layer metrics only serve-overlap measures (zero elsewhere)
SERVE_LAYER_METRICS = ("serve.accept_s", "serve.units_launched",
                       "serve.units_deduped", "serve.dedup_ratio", "serve.failed")


@dataclass
class Context:
    """Where and how one benchmark run executes."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    trace_out: Path


@dataclass
class Measurement:
    """What one run measured, plus the outcome of its checks."""

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def check(self, ok: bool, problem: str) -> None:
        """Count one output check; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def functional_spec(seed: int) -> Any:
    """heat + lattice with short traces: the AVR compressor dominates.

    Both run a fixed number of iterations, so the work does not depend
    on the seed (kmeans iterates to convergence: 12 to 60 iterations).
    """
    from repro.experiment import ExperimentSpec

    return ExperimentSpec(
        name="functional-bound",
        workloads=("heat", "lattice"),
        designs=PAPER_DESIGNS,
        scales=(0.25,),
        seeds=(seed,),
        num_cores=8,
        max_accesses_per_core=2_000,
    )


def timing_spec(seed: int) -> Any:
    """bscholes with long traces: timing replay dominates.

    At scale 0.5 bscholes touches 1.5 MiB, two thirds of it
    approximable, against the 1 MiB LLC, so the AVR LLC's miss and
    eviction path runs.  Its iteration count is fixed.
    """
    from repro.experiment import ExperimentSpec

    return ExperimentSpec(
        name="timing-bound",
        workloads=("bscholes",),
        designs=PAPER_DESIGNS,
        scales=(0.5,),
        seeds=(seed,),
        num_cores=8,
        max_accesses_per_core=15_000,
    )


def warmup_spec(seed: int) -> Any:
    """A run small enough to finish lazy imports and first-use set-up."""
    from repro.experiment import ExperimentSpec

    return ExperimentSpec(
        name="warm-up",
        workloads=("heat",),
        designs=PAPER_DESIGNS,
        scales=(0.05,),
        seeds=(seed,),
        num_cores=2,
        max_accesses_per_core=500,
    )


def sweep_spec(seed: int) -> Any:
    """All seven workloads x 5 designs x 2 thresholds, small and short."""
    from repro.experiment import ExperimentSpec

    return ExperimentSpec(
        name="warm-sweep",
        workloads=(),
        designs=PAPER_DESIGNS,
        scales=(0.03,),
        seeds=(seed,),
        t2_thresholds=(0.05, 0.1),
        num_cores=2,
        max_accesses_per_core=1_000,
    )


def serve_specs(seed: int, window: int) -> list[Any]:
    """The distinct single-workload specs one serve window draws from.

    Specs differ in workload, data seed and error threshold, so they
    share some job units (a reference run is shared by every threshold
    of one workload and seed) and not others.  Each window gets its own
    data seeds, so it starts with none of its results cached.  kmeans
    is left out: its run time follows its seed-dependent iteration
    count.
    """
    from repro.experiment import ExperimentSpec
    from repro.workloads import WORKLOADS

    names = sorted(set(WORKLOADS) - {"kmeans"})
    thresholds = (0.02, 0.05, 0.1)
    per_seed = len(names) * len(thresholds)
    return [
        ExperimentSpec(
            name=f"serve-{window}-{i}",
            workloads=(names[i % len(names)],),
            designs=("baseline", "truncate", "AVR"),
            scales=(0.03,),
            seeds=((seed * 1000 + window) * 100 + i // per_seed,),
            t2_thresholds=(thresholds[(i // len(names)) % len(thresholds)],),
            num_cores=2,
            max_accesses_per_core=1_000,
        )
        for i in range(DISTINCT_SPECS)
    ]


def serve_orders() -> list[list[int]]:
    """Which spec each client sends, in order.

    The same in every run and window: the seed picks the specs' data,
    while this pattern fixes which submissions repeat or overlap, so
    runs differ in inputs but not in how much work is shared.  At about
    a fifth of the positions both clients send the same spec at about
    the same time, so one joins the other's in-flight units.
    """
    rng = random.Random(0)
    first, second = [], []
    for _ in range(SUBMISSIONS_PER_CLIENT):
        first.append(rng.randrange(DISTINCT_SPECS))
        second.append(first[-1] if rng.random() < 0.2
                      else rng.randrange(DISTINCT_SPECS))
    return [first, second]


# ----------------------------------------------------------------------
# shared measurement helpers
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_dir(ctx: Context, label: str) -> Path:
    """A new empty directory under the run's work directory."""
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=ctx.work))


def child_env(ctx: Context) -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.root / "src")
    return env


def children_cpu_s() -> float:
    """CPU seconds used by every child process this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(ctx: Context, code: str) -> tuple[float, str]:
    """Run ``code`` in a fresh interpreter; return its CPU time and stdout."""
    start = children_cpu_s()
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, 'perfbench'); import workloads; {code}"],
        cwd=ctx.root, env=child_env(ctx), check=True, capture_output=True,
        text=True, timeout=170,
    )
    return children_cpu_s() - start, out.stdout


def process_cpu_clock(pid: int) -> int:
    """The clock id of another process's CPU time, as ``clock_getcpuclockid``
    builds it on Linux: ``CPUCLOCK_SCHED`` of the whole thread group."""
    return (~pid << 3) | 2


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile, interpolated between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def record_latencies(m: Measurement, latencies: list[float]) -> None:
    m.layers["latency.p50_s"] = statistics.median(latencies)
    m.layers["latency.p90_s"] = percentile(latencies, 0.9)
    m.layers["latency.samples"] = len(latencies)


def record_throughput(m: Measurement, cpu_s: float, units: int,
                      instructions: int) -> None:
    m.metrics["run_cpu_s"] = cpu_s
    m.metrics["units_per_cpu_s"] = units / cpu_s
    m.metrics["sim_instr_per_cpu_s"] = instructions / cpu_s
    m.metrics["peak_rss_mb"] = peak_rss_mb()


def layer_metrics(tracer: Tracer, traced_s: list[float], traced_cpu_s: list[float],
                  untraced_cpu_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced repetitions, averaged per repetition.

    ``traced_s`` are the traced repetitions' wall times, which the
    spans partition; the CPU times give the tracing overhead.
    """
    rollup = tracer.rollup()
    repeats = len(traced_s)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = rollup[layer]["self_s"] / repeats
        out[f"{layer}.calls"] = rollup[layer]["calls"] / repeats
    counters = tracer.counters
    out["compression.success_ratio"] = ratio(
        counters["compression.compressed"], counters["compression.blocks"])
    timing_s = sum(rollup[layer]["self_s"] for layer in (
        "system", "cache.private_filter", "cache.llc_avr",
        "cache.llc_baseline", "memory.dram", "cpu.interval"))
    out["system.ns_per_access"] = ratio(timing_s, counters["system.accesses"]) * 1e9
    out["trace.store.hit_ratio"] = ratio(
        counters["trace.store.hits"], counters["trace.store.lookups"])
    out["harness.result_cache.hit_ratio"] = ratio(
        counters["harness.result_cache.hits"],
        counters["harness.result_cache.lookups"])
    out["tracing.run_s"] = statistics.mean(traced_s)
    out["tracing.overhead_s"] = (statistics.median(traced_cpu_s)
                                 - statistics.median(untraced_cpu_s))
    out["tracing.coverage"] = ratio(
        sum(out[f"{layer}.self_s"] for layer in LAYERS), out["tracing.run_s"])
    return out


def repeat_timed(ctx: Context, m: Measurement, request: Callable[[], Any],
                 verify: Callable[[Any], None]) -> tuple[list[float], list[float]]:
    """Run ``request`` repeatedly for ``ctx.seconds``.

    Returns the CPU times and the wall times of the untraced
    repetitions.  ``verify`` checks each result outside the timed
    region.  In traced mode, repetitions alternate untraced and traced,
    so the traced ones can be compared with the untraced ones for the
    overhead; the per-layer metrics of the traced ones go to
    ``m.layers``.
    """
    tracer = Tracer()
    plain_cpu: list[float] = []
    plain_wall: list[float] = []
    traced_cpu: list[float] = []
    traced_wall: list[float] = []
    deadline = time.perf_counter() + ctx.seconds
    while (time.perf_counter() < deadline
           or len(plain_cpu) < MIN_REPEATS
           or (ctx.trace and len(traced_cpu) < MIN_REPEATS)):
        use_trace = ctx.trace and len(traced_cpu) < len(plain_cpu)
        m.attempted += 1
        # Start every request from the same heap state, as a fresh
        # process would: otherwise a cyclic collection triggered by the
        # previous request's garbage lands at a varying point.
        gc.collect()
        if use_trace:
            tracer.install()
        try:
            start_cpu = time.process_time()
            start = time.perf_counter()
            result = request()
            wall = time.perf_counter() - start
            cpu = time.process_time() - start_cpu
        except Exception as exc:  # noqa: BLE001 - a failed request is counted
            m.failed += 1
            m.problems.append(f"request failed: {type(exc).__name__}: {exc}")
            break
        finally:
            tracer.uninstall()
        (traced_cpu if use_trace else plain_cpu).append(cpu)
        (traced_wall if use_trace else plain_wall).append(wall)
        verify(result)
    if ctx.trace:
        tracer.write_chrome_trace(ctx.trace_out)
        m.layers.update(layer_metrics(tracer, traced_wall, traced_cpu, plain_cpu))
    return plain_cpu, plain_wall


# ----------------------------------------------------------------------
# functional-bound / timing-bound: repeated cold runs
# ----------------------------------------------------------------------
def run_cold(ctx: Context, make_spec: Callable[[int], Any]) -> Measurement:
    """Cold ``run_experiment`` calls, each on a new empty cache and store."""
    from repro.experiment import run_experiment

    m = Measurement()
    spec = make_spec(ctx.seed)
    # The set-up a user pays before every cold run: a fresh interpreter
    # importing the package and building the spec.
    m.metrics["setup_s"] = statistics.median(
        spawn(ctx, f"workloads.{make_spec.__name__}({ctx.seed})")[0]
        for _ in range(SETUPS)
    )
    # Untimed, so the first timed run does not pay for lazy imports.
    run_experiment(warmup_spec(ctx.seed), jobs=1,
                   cache_dir=fresh_dir(ctx, "warm-up"))
    seen: dict[str, Any] = {}

    def request() -> tuple[Any, Path]:
        cache = fresh_dir(ctx, "cold")
        return run_experiment(spec, jobs=1, cache_dir=cache), cache

    def verify(outcome: tuple[Any, Path]) -> None:
        result, cache = outcome
        mapping = checks.result_mapping(result)
        digest = checks.digest(mapping)
        m.check(seen.setdefault("digest", digest) == digest,
                "cold runs of one spec gave different digests")
        bad = checks.traffic_violations(mapping)
        m.check(not bad, "; ".join(bad))
        # Keep only the newest cache: the warm check below re-reads it.
        if "cache" in seen:
            shutil.rmtree(seen["cache"], ignore_errors=True)
        seen.update(cache=cache, mapping=mapping, units=checks.units(vars(result.stats)))

    cpu, wall = repeat_timed(ctx, m, request, verify)
    warm = run_experiment(spec, jobs=1, cache_dir=seen["cache"])
    m.check(warm.stats.executed == 0, "warm re-run executed job units")
    m.check(checks.digest(checks.result_mapping(warm)) == seen["digest"],
            "warm digest differs from cold digest")
    m.digest = seen["digest"]
    record_throughput(m, statistics.median(cpu), seen["units"],
                      checks.instructions(seen["mapping"]))
    record_latencies(m, wall)
    return m


def run_functional_bound(ctx: Context) -> Measurement:
    return run_cold(ctx, functional_spec)


def run_timing_bound(ctx: Context) -> Measurement:
    return run_cold(ctx, timing_spec)


# ----------------------------------------------------------------------
# warm-sweep: repeated warm re-runs of a filled cache
# ----------------------------------------------------------------------
def fill_cache(seed: int, cache: str) -> None:
    """warm-sweep set-up, run in a fresh interpreter: one cold run.

    Prints the cold result's digest, its DRAM-traffic violations and
    its unit and instruction counts as one JSON line.
    """
    from repro.experiment import run_experiment

    result = run_experiment(sweep_spec(seed), jobs=1, cache_dir=cache)
    mapping = checks.result_mapping(result)
    print(json.dumps({
        "digest": checks.digest(mapping),
        "violations": checks.traffic_violations(mapping),
        "units": checks.units(vars(result.stats)),
        "instructions": checks.instructions(mapping),
    }))


def run_warm_sweep(ctx: Context) -> Measurement:
    """Set-up fills a result cache; the timed part re-runs the sweep warm.

    The cache is filled by child interpreters, so the warm re-runs start
    from the heap of a process that has done nothing else, as a user's
    re-run would.
    """
    from repro.experiment import run_experiment

    m = Measurement()
    spec = sweep_spec(ctx.seed)
    fills = []
    reports = []
    for _ in range(SETUPS):
        cache = fresh_dir(ctx, "fill")
        seconds, stdout = spawn(ctx, f"workloads.fill_cache({ctx.seed}, {str(cache)!r})")
        fills.append(seconds)
        reports.append(json.loads(stdout.splitlines()[-1]))
    m.metrics["setup_s"] = statistics.median(fills)
    m.digest = reports[0]["digest"]
    m.check(all(r["digest"] == m.digest for r in reports),
            "cold fills gave different digests")
    m.check(not reports[0]["violations"], "; ".join(reports[0]["violations"]))

    def verify(result: Any) -> None:
        m.check(result.stats.executed == 0, "warm re-run executed job units")
        m.check(checks.digest(checks.result_mapping(result)) == m.digest,
                "warm digest differs from cold digest")

    cpu, wall = repeat_timed(
        ctx, m, lambda: run_experiment(spec, jobs=1, cache_dir=cache), verify
    )
    record_throughput(m, statistics.median(cpu), reports[0]["units"],
                      reports[0]["instructions"])
    record_latencies(m, wall)
    return m


# ----------------------------------------------------------------------
# serve-overlap: closed-loop windows of two clients against one daemon
# ----------------------------------------------------------------------
@dataclass
class Submission:
    """One client request and what came back."""

    spec_index: int
    sent: float = 0.0
    accepted: float = 0.0
    done: float = 0.0
    units: int = 0
    mapping: dict[str, Any] | None = None
    error: str = ""


class Daemon:
    """``repro serve`` as a child process on a Unix socket."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.dir = fresh_dir(ctx, "serve")
        # Relative to the checkout root, which is the cwd of both sides:
        # a Unix socket path must stay short.
        self.socket = str(self.dir.relative_to(ctx.root) / "d.sock")
        self.proc: subprocess.Popen[bytes] | None = None

    def start(self) -> float:
        """Start the daemon; return its CPU seconds until it answers ``status``."""
        from repro.serve.client import ServeClient, ServeError

        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--workers", "2", "--cache-dir", str(self.dir / "cache")],
            cwd=self.ctx.root, env=child_env(self.ctx),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        while time.perf_counter() - start < 60:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            try:
                with ServeClient(socket_path=self.socket, timeout=5) as client:
                    client.status()
                return self.cpu_s()
            except (OSError, ServeError):
                time.sleep(0.005)
        raise RuntimeError("repro serve did not answer within 60 s")

    def status(self) -> dict[str, Any]:
        from repro.serve.client import ServeClient

        with ServeClient(socket_path=self.socket, timeout=30) as client:
            return client.status()

    def warm_up(self, seed: int) -> None:
        """One untimed submission, so the workers exist and have imported
        the program before the first window."""
        from repro.serve.client import ServeClient

        with ServeClient(socket_path=self.socket, timeout=120) as client:
            client.wait(client.submit(warmup_spec(seed).to_mapping()))

    def _pids(self) -> list[int]:
        """The daemon and every process below it (its workers)."""
        assert self.proc is not None
        found = []
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop()
            found.append(pid)
            try:
                for task in Path(f"/proc/{pid}/task").iterdir():
                    pending.extend(
                        int(child) for child in
                        (task / "children").read_text().split()
                    )
            except OSError:
                continue
        return found

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the daemon and its workers, MiB."""
        total_kb = 0
        for pid in self._pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024

    def cpu_s(self) -> float:
        """CPU seconds used so far by the daemon and its live workers."""
        total = 0.0
        for pid in self._pids():
            try:
                total += time.clock_gettime(process_cpu_clock(pid))
            except OSError:
                continue
        return total

    def stop(self) -> None:
        """SIGTERM, wait for a clean exit, kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc = None
        shutil.rmtree(self.dir, ignore_errors=True)


def drive_client(socket: str, specs: list[Any], order: list[int],
                 barrier: threading.Barrier, out: list[Submission]) -> None:
    """Closed loop: send the next spec only after the previous reply."""
    from repro.serve.client import ServeClient

    with ServeClient(socket_path=socket, timeout=120) as client:
        barrier.wait()
        for index in order:
            sub = Submission(spec_index=index)
            sub.sent = time.perf_counter()
            try:
                job = client.submit(specs[index].to_mapping())
                sub.accepted = time.perf_counter()
                outcome = client.wait(job)
                sub.done = time.perf_counter()
                sub.mapping = outcome["result"]
                sub.units = checks.units(outcome["stats"])
            except Exception as exc:  # noqa: BLE001 - counted as failed
                sub.done = time.perf_counter()
                sub.error = f"{type(exc).__name__}: {exc}"
            out.append(sub)


def run_window(daemon: Daemon,
               specs: list[Any]) -> tuple[float, float, list[Submission]]:
    """One closed-loop window: both clients send all their submissions.

    Returns the window's CPU seconds, summed over the daemon, its workers
    and this process (whose client threads decode the replies), its wall
    seconds, and the submissions.
    """
    barrier = threading.Barrier(3)
    results: list[list[Submission]] = [[], []]
    threads = [
        threading.Thread(target=drive_client,
                         args=(daemon.socket, specs, order, barrier, results[i]))
        for i, order in enumerate(serve_orders())
    ]
    for thread in threads:
        thread.start()
    start_cpu = daemon.cpu_s() + time.process_time()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    cpu = daemon.cpu_s() + time.process_time() - start_cpu
    return cpu, wall, results[0] + results[1]


def run_serve_overlap(ctx: Context) -> Measurement:
    """Closed-loop windows of two clients on one daemon, overlapping specs."""
    from repro.experiment import run_experiment

    m = Measurement()
    startups = []
    windows: list[tuple[float, float, list[Submission], list[Any]]] = []
    daemon = None
    try:
        for attempt in range(SETUPS):
            daemon = Daemon(ctx)
            startups.append(daemon.start())
            if attempt < SETUPS - 1:
                daemon.stop()
        assert daemon is not None
        m.metrics["setup_s"] = statistics.median(startups)
        daemon.warm_up(ctx.seed)
        before = daemon.status()["scheduler"]["stats"]
        deadline = time.perf_counter() + ctx.seconds
        while time.perf_counter() < deadline or len(windows) < MIN_REPEATS:
            specs = serve_specs(ctx.seed, len(windows))
            windows.append((*run_window(daemon, specs), specs))
        stats = daemon.status()["scheduler"]["stats"]
        daemon_rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    first_window: list[str] = []
    for _, _, subs, specs in windows:
        by_spec: dict[int, str] = {}
        m.attempted += len(subs)
        for sub in subs:
            if sub.error or sub.mapping is None:
                m.failed += 1
                m.problems.append(f"submission failed: {sub.error}")
                continue
            digest = checks.digest(sub.mapping)
            m.check(by_spec.setdefault(sub.spec_index, digest) == digest,
                    f"{specs[sub.spec_index].name} served two different results")
            bad = checks.traffic_violations(sub.mapping)
            m.check(not bad, "; ".join(bad))
        first_window = first_window or [by_spec[i] for i in sorted(by_spec)]
    m.failed += int(stats["units_failed"])
    # A served result must equal the one-shot result of the same spec.
    for index in random.Random(ctx.seed).sample(sorted(by_spec), ONE_SHOT_SAMPLES):
        one_shot = run_experiment(specs[index], jobs=1,
                                  cache_dir=fresh_dir(ctx, "one-shot"))
        m.check(checks.digest(checks.result_mapping(one_shot)) == by_spec[index],
                f"{specs[index].name}: served result differs from one-shot result")
    # The number of windows depends on their speed; the first is
    # always there, so its results are the run's digest.
    m.digest = checks.combined_digest(first_window)

    ok = [s for s in windows[0][2] if s.mapping is not None]
    record_throughput(m, statistics.median(w[0] for w in windows),
                      sum(s.units for s in ok),
                      sum(checks.instructions(s.mapping) for s in ok))
    m.metrics["peak_rss_mb"] += daemon_rss
    every = [s for _, _, window, _ in windows for s in window
             if s.mapping is not None]
    record_latencies(m, [s.done - s.sent for s in every])
    m.layers["serve.accept_s"] = statistics.median(s.accepted - s.sent for s in every)
    launched = stats["units_launched"] - before["units_launched"]
    deduped = stats["units_deduped"] - before["units_deduped"]
    m.layers["serve.units_launched"] = launched
    m.layers["serve.units_deduped"] = deduped
    m.layers["serve.dedup_ratio"] = ratio(deduped, launched + deduped)
    m.layers["serve.failed"] = stats["units_failed"]
    m.layers["tracing.run_s"] = statistics.median(w[1] for w in windows)
    if ctx.trace:
        write_serve_trace(ctx.trace_out, windows)
    return m


def write_serve_trace(path: Path,
                      windows: list[tuple[float, float, list[Submission], list[Any]]]
                      ) -> None:
    """Chrome trace of every window: one row per client, two spans per request."""
    origin = min(s.sent for _, _, subs, _ in windows for s in subs)
    events = []
    for _, _, subs, _ in windows:
        for i, sub in enumerate(subs):
            client = 1 + (i >= SUBMISSIONS_PER_CLIENT)
            for name, end in (("serve.accept", sub.accepted),
                              ("serve.submission", sub.done)):
                events.append({
                    "name": name, "cat": "serve", "ph": "X", "pid": 1,
                    "tid": client, "ts": (sub.sent - origin) * 1e6,
                    "dur": max(end - sub.sent, 0.0) * 1e6,
                })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


WORKLOADS: dict[str, Callable[[Context], Measurement]] = {
    "functional-bound": run_functional_bound,
    "timing-bound": run_timing_bound,
    "warm-sweep": run_warm_sweep,
    "serve-overlap": run_serve_overlap,
}
