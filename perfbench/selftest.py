"""Tests of the benchmark itself.

Run from the root of a checkout (takes about half a minute)::

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so the repository's own test suite
does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.experiment import ExperimentSpec, run_experiment  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: the layers each compute workload is built to load
LOADED_BY = {
    "functional-bound": (
        "workloads", "approx.avr", "approx.truncate", "approx.dganger",
        "compression", "trace.generate", "trace.store",
        "harness.result_cache.put",
    ),
    "timing-bound": (
        "system", "cache.private_filter", "cache.llc_avr",
        "cache.llc_baseline", "memory.dram", "cpu.interval",
    ),
    "warm-sweep": (
        "harness.content_key", "harness.result_cache.get", "harness.sweep",
    ),
}
SPECS = {
    "functional-bound": workloads.functional_spec,
    "timing-bound": workloads.timing_spec,
    "warm-sweep": workloads.sweep_spec,
}


def tiny_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="tiny", workloads=("heat",), designs=workloads.PAPER_DESIGNS,
        scales=(0.05,), seeds=(seed,), num_cores=2, max_accesses_per_core=500,
    )


def traced_run(spec: ExperimentSpec, cache: Path) -> tuple[str, spans.Tracer]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_experiment(spec, jobs=1, cache_dir=cache)
    finally:
        tracer.uninstall()
    return checks.digest(checks.result_mapping(result)), tracer


@pytest.fixture(scope="module")
def tracers(tmp_path_factory: pytest.TempPathFactory) -> dict[str, spans.Tracer]:
    """One traced run of each compute workload (warm-sweep traced warm)."""
    out = {}
    for name, make_spec in SPECS.items():
        cache = tmp_path_factory.mktemp(name)
        spec = make_spec(0)
        if name == "warm-sweep":
            run_experiment(spec, jobs=1, cache_dir=cache)
        out[name] = traced_run(spec, cache)[1]
    return out


@pytest.mark.parametrize("workload", sorted(LOADED_BY))
def test_loaded_layers_record_calls(tracers: dict, workload: str) -> None:
    rollup = tracers[workload].rollup()
    idle = [layer for layer in LOADED_BY[workload]
            if rollup[layer]["calls"] == 0]
    assert not idle, f"{workload} recorded no call in {idle}"


def test_every_binding_is_called(tracers: dict) -> None:
    called = set().union(*(t.binding_calls for t in tracers.values()))
    never = [b[:2] for b in spans.LAYER_BINDINGS if b[:2] not in called]
    assert not never, f"wrapped names never called: {never}"


def test_process_cpu_clock_reads_a_process_cpu_time() -> None:
    # The daemon tree's CPU time is read through this clock id.
    sum(i * i for i in range(200_000))
    own = time.clock_gettime(workloads.process_cpu_clock(os.getpid()))
    assert own == pytest.approx(time.process_time(), rel=0.05)


def test_install_restores_the_program(tmp_path: Path) -> None:
    import repro.harness.sweep as sweep

    original = sweep.run_sweep
    tracer = spans.Tracer()
    tracer.install()
    assert sweep.run_sweep is not original
    tracer.uninstall()
    assert sweep.run_sweep is original


def test_traced_and_untraced_digests_are_equal(tmp_path: Path) -> None:
    plain = run_experiment(tiny_spec(0), jobs=1, cache_dir=tmp_path / "plain")
    traced, _ = traced_run(tiny_spec(0), tmp_path / "traced")
    assert checks.digest(checks.result_mapping(plain)) == traced


def test_self_times_partition_the_traced_interval(tmp_path: Path) -> None:
    _, tracer = traced_run(tiny_spec(0), tmp_path)
    roots = [(start, end) for _, start, end, parent in tracer.spans
             if parent == -1]
    total = sum(entry["self_s"] for entry in tracer.rollup().values())
    assert total == pytest.approx(sum(e - s for s, e in roots) / 1e9)


def test_seed_changes_the_inputs(tmp_path: Path) -> None:
    for make_spec in (*SPECS.values(), tiny_spec):
        assert make_spec(0).content_hash() != make_spec(1).content_hash()
    assert ([s.content_hash() for s in workloads.serve_specs(0, 0)]
            != [s.content_hash() for s in workloads.serve_specs(1, 0)])
    digests = {
        checks.digest(checks.result_mapping(
            run_experiment(tiny_spec(seed), jobs=1, cache_dir=tmp_path / str(seed))
        ))
        for seed in (0, 1)
    }
    assert len(digests) == 2


def test_names_and_metric_sets_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert set(names[:len(spec["workloads"])]) == set(workloads.WORKLOADS)
    produced = set(workloads.layer_metrics(spans.Tracer(), [1.0], [1.0], [1.0]))
    produced |= set(workloads.SERVE_LAYER_METRICS)
    produced |= {"latency.p50_s", "latency.p90_s", "latency.samples"}
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_traffic_check_flags_avr_above_baseline() -> None:
    def run(read: int) -> dict:
        return {"timing": {"dram_bytes_read": read, "dram_bytes_written": 0}}

    point = {"workload": "heat", "scale": 1.0, "seed": 0}
    ok = {"evaluations": [{"point": point,
                           "runs": {"baseline": run(10), "AVR": run(5)}}]}
    bad = {"evaluations": [{"point": point,
                            "runs": {"baseline": run(10), "AVR": run(11)}}]}
    assert checks.traffic_violations(ok) == []
    assert len(checks.traffic_violations(bad)) == 1


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
