"""Tests for the design-space planner (repro.planner).

The anchors: a plan's front *is* the exhaustive grid's front
(independently recomputed through a plain sweep), every candidate is
evaluated in one sweep, planning is deterministic, and a warm re-plan
executes zero sweep jobs because the plan shares the sweep engine's
result cache.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.common.config import SystemConfig
from repro.designs import BASELINE, get_design
from repro.harness.sweep import SweepSpec, run_sweep
from repro.planner import (
    Candidate,
    Constraint,
    PlanSpec,
    enumerate_candidates,
    metric_matrix,
    nondominated_mask,
    run_plan,
)

#: micro search space every sweep-backed test shares (4 candidates)
MICRO = dict(
    workload="heat",
    designs=("AVR", "truncate"),
    thresholds_scales=(0.5, 1.0),
    t2_thresholds=(0.01,),
    objective="traffic",
    scale=0.12,
    max_accesses_per_core=2_000,
    num_cores=2,
)


# ----------------------------------------------------------------------
# Pareto kernels (pure numpy)
# ----------------------------------------------------------------------
class TestPareto:
    def test_mask_keeps_only_nondominated_rows(self):
        values = np.array([[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0]])
        assert nondominated_mask(values).tolist() == [True, True, True, False]

    def test_duplicates_all_stay_on_the_front(self):
        values = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert nondominated_mask(values).tolist() == [True, True, False]

    def test_metric_matrix_negates_maximize_metrics(self):
        rows = [{"traffic": 0.5, "compression": 4.0},
                {"traffic": 0.6, "compression": 8.0}]
        matrix = metric_matrix(rows, ("traffic", "compression"))
        assert matrix[0].tolist() == [0.5, -4.0]
        assert matrix[1].tolist() == [0.6, -8.0]
        # higher compression must NOT be dominated by lower traffic alone
        assert nondominated_mask(matrix).all()

# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------
class TestConstraint:
    def test_parse_and_render_roundtrip(self):
        c = Constraint.parse("error<=0.05")
        assert (c.metric, c.op, c.value) == ("error", "<=", 0.05)
        assert Constraint.parse(c.render()) == c
        assert Constraint.parse("compression>=4").satisfied(4.0)

    def test_satisfied_directions(self):
        assert Constraint.parse("error<=0.05").satisfied(0.05)
        assert not Constraint.parse("error<=0.05").satisfied(0.051)
        assert not Constraint.parse("compression>=4").satisfied(3.9)

    @pytest.mark.parametrize("text", ["error<0.05", "bogus<=1", "error<=x",
                                      "error"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            Constraint.parse(text)


# ----------------------------------------------------------------------
# spec construction + serialization
# ----------------------------------------------------------------------
class TestPlanSpec:
    def test_validation_failures(self):
        with pytest.raises(ValueError, match="unknown workload"):
            PlanSpec(workload="nope")
        with pytest.raises(ValueError, match="unknown design"):
            PlanSpec(designs=("avrr",))
        with pytest.raises(ValueError, match="objective"):
            PlanSpec(objective="speed")
        with pytest.raises(ValueError, match="AVR toggle"):
            PlanSpec(avr_toggles=("enable_warp",))
        with pytest.raises(ValueError, match="constraint"):
            PlanSpec(constraints=("error<0.05",))
        # axis values the sweep would only reject mid-run
        with pytest.raises(ValueError, match="t2 must be"):
            PlanSpec(t2_thresholds=(0.0,))
        with pytest.raises(ValueError, match="thresholds_scale must be"):
            PlanSpec(thresholds_scales=(-1.0,))
        with pytest.raises(ValueError, match="scale must be"):
            PlanSpec(scale=0.0)
        with pytest.raises(ValueError, match="approx_line_bytes"):
            PlanSpec(designs=("truncate",), approx_line_bytes=(100,))
        with pytest.raises(ValueError, match="num_cores"):
            PlanSpec(num_cores=0)

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_roundtrip_preserves_identity(self, tmp_path, suffix):
        spec = PlanSpec(
            name="rt", workload="kmeans", designs=("AVR", "truncate"),
            thresholds_scales=(0.5, 1.0), t2_thresholds=(0.01, 0.04),
            approx_line_bytes=(16, 32), avr_toggles=("enable_dbuf",),
            objective="energy", constraints=("error<=0.05",),
            scale=0.5, max_accesses_per_core=3_000, num_cores=2,
        )
        path = spec.to_file(tmp_path / f"plan{suffix}")
        loaded = PlanSpec.from_file(path)
        assert loaded == spec
        assert loaded.content_hash() == spec.content_hash()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"workload": "heat", "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            PlanSpec.from_file(path)

    @pytest.mark.parametrize(
        "key", ["budget", "eta", "min_fidelity", "initial_candidates", "seed"]
    )
    def test_removed_search_knobs_are_unknown_keys(self, key):
        with pytest.raises(ValueError, match="unknown plan spec keys"):
            PlanSpec.from_mapping({"workload": "heat", key: 2})

    def test_identity_excludes_execution_fields(self):
        spec = PlanSpec(**MICRO)
        relabeled = dataclasses.replace(
            spec, name="other", jobs=4, cache_dir="/tmp/c",
            engine="reference", trace_store="/tmp/t",
        )
        assert relabeled.content_hash() == spec.content_hash()
        assert dataclasses.replace(
            spec, objective="energy"
        ).content_hash() != spec.content_hash()

    def test_content_hash_memoized_and_survives_pickle(self):
        spec = PlanSpec(**MICRO)
        first = spec.content_hash()
        assert spec.__dict__["_content_hash"] == first
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.__dict__.get("_content_hash") == first
        assert clone.content_hash() == first


# ----------------------------------------------------------------------
# candidate enumeration
# ----------------------------------------------------------------------
class TestEnumerate:
    def test_micro_space_is_the_cross_product(self):
        cands = enumerate_candidates(PlanSpec(**MICRO))
        assert len(cands) == 4
        assert [c.label() for c in cands] == [
            "AVR~s0.5 t2=0.01", "AVR t2=0.01",
            "truncate~s0.5 t2=0.01", "truncate t2=0.01",
        ]

    def test_axes_apply_only_where_meaningful(self):
        spec = PlanSpec(
            workload="heat", designs=("AVR", "truncate"),
            approx_line_bytes=(16, 32), avr_toggles=("enable_dbuf",),
        )
        labels = [c.label() for c in enumerate_candidates(spec)]
        # widths widen truncate only; toggles widen AVR only; truncate's
        # default width is 32, so w32 collapses onto the base design
        assert labels == [
            "AVR", "AVR~no-enable_dbuf",
            "truncate~w16", "truncate",
        ]

    def test_duplicate_identities_collapse(self):
        spec = PlanSpec(workload="heat", designs=("AVR",),
                        thresholds_scales=(1.0, 1.0))
        assert len(enumerate_candidates(spec)) == 1

    def test_enumeration_and_keys_are_deterministic(self):
        a = enumerate_candidates(PlanSpec(**MICRO))
        b = enumerate_candidates(PlanSpec(**MICRO))
        assert [c.key() for c in a] == [c.key() for c in b]

    def test_default_thresholds_candidate(self):
        c = Candidate(design=get_design("AVR"))
        assert c.thresholds() is None and c.label() == "AVR"


# ----------------------------------------------------------------------
# end-to-end planning (sweep-backed, shared warm cache)
# ----------------------------------------------------------------------
class TestRunPlan:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("plan-cache")

    def test_plan_front_is_the_exhaustive_front(self, cache_dir):
        spec = PlanSpec(**MICRO, cache_dir=str(cache_dir))
        result = run_plan(spec)
        assert len(result.outcomes) == result.stats.candidates == 4

        # Recompute the front independently through a plain sweep.
        candidates = enumerate_candidates(spec)
        sweep = run_sweep(
            SweepSpec(
                workloads=(spec.workload,),
                designs=(BASELINE,) + tuple(c.design for c in candidates),
                config=SystemConfig.scaled(num_cores=spec.resolved_cores()),
                scales=(spec.scale,),
                seeds=(spec.trace_seed,),
                thresholds=(candidates[0].thresholds(),),
                max_accesses_per_core=spec.max_accesses_per_core,
            ),
            cache_dir=str(cache_dir),
        )
        ev = sweep.by_workload()[spec.workload]
        rows = [
            {
                "traffic": ev.normalized(c.design, "traffic"),
                "error": ev.runs[c.design].output_error,
                "compression": ev.runs[c.design].compression_ratio,
            }
            for c in candidates
        ]
        mask = nondominated_mask(metric_matrix(rows, spec.pareto_metrics))
        expected = {c.key() for c, keep in zip(candidates, mask) if keep}
        assert {o.candidate.key() for o in result.front} == expected

    def test_one_sweep_covers_every_design_and_t2(self, cache_dir, monkeypatch):
        from repro.planner import engine

        calls = []

        def counting_sweep(sweep_spec, **kwargs):
            calls.append(sweep_spec)
            return run_sweep(sweep_spec, **kwargs)

        monkeypatch.setattr(engine, "run_sweep", counting_sweep)
        spec = PlanSpec(**{**MICRO, "t2_thresholds": (0.01, 0.05)},
                        cache_dir=str(cache_dir))
        result = run_plan(spec)
        (sweep_spec,) = calls
        assert len(sweep_spec.points()) == 2
        assert len(sweep_spec.designs) == 5  # baseline + 4 designs
        assert len(result.outcomes) == 8
        assert {o.candidate.t2 for o in result.outcomes} == {0.01, 0.05}

    def test_planning_is_deterministic(self, cache_dir):
        spec = PlanSpec(**MICRO, cache_dir=str(cache_dir))
        first = run_plan(spec).to_mapping()
        second = run_plan(spec).to_mapping()
        assert first == second

    def test_warm_replan_executes_nothing(self, cache_dir):
        spec = PlanSpec(**MICRO, cache_dir=str(cache_dir))
        result = run_plan(spec)  # cache warmed by the tests above
        assert result.stats.jobs_executed == 0
        assert result.stats.cache_misses == 0
        assert result.stats.cache_hits > 0

    def test_constraints_gate_the_front(self, cache_dir):
        spec = PlanSpec(**MICRO, cache_dir=str(cache_dir),
                        constraints=("error<=1e-9",))
        result = run_plan(spec)
        assert result.front == () and result.recommended == ()
        assert all(not o.feasible for o in result.outcomes)

    def test_prune_experiment_narrows_the_grid(self, cache_dir):
        from repro.experiment import ExperimentSpec

        spec = PlanSpec(**MICRO, cache_dir=str(cache_dir))
        result = run_plan(spec)
        exp = ExperimentSpec(
            workloads=("heat",),
            designs=("baseline", "AVR", "truncate"),
            t2_thresholds=(0.005, 0.01, 0.02),
            scales=(0.12,), max_accesses_per_core=2_000, num_cores=2,
        )
        pruned = result.prune_experiment(exp)
        front_names = {o.candidate.design.name for o in result.front}
        assert set(pruned.designs) == front_names
        assert pruned.t2_thresholds == (0.01,)
        assert pruned.content_hash() != exp.content_hash()
        # pruned designs all resolve through the registry
        from repro.designs import resolve_designs

        resolve_designs(pruned.designs)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("plan-cli-cache")

    def _argv(self, cache_dir, *extra):
        return [
            "plan", "--workload", "heat", "--designs", "AVR", "truncate",
            "--scales", "0.5", "1.0", "--t2", "0.01",
            "--scale", "0.12", "--accesses", "2000", "--cores", "2",
            "--cache-dir", str(cache_dir), *extra,
        ]

    def test_plan_command_prints_front(self, cache_dir, capsys):
        from repro.__main__ import main

        assert main(self._argv(cache_dir)) == 0
        out = capsys.readouterr().out
        assert "4 candidate(s) on heat" in out
        assert "Pareto front" in out
        assert "job(s) executed" in out

    def test_expect_cached_contract(self, cache_dir, capsys):
        from repro.__main__ import main

        assert main(self._argv(cache_dir, "--expect-cached")) == 0
        json_path = None
        assert main(self._argv(cache_dir, "--json", "-")) == 0
        payload = capsys.readouterr().out
        start = payload.index("{")
        report = json.loads(payload[start:])
        assert report["candidates"] == 4
        assert report["stats"]["jobs_executed"] == 0
        assert report["front"] and report["recommended"]
        assert json_path is None

    def test_spec_file_with_overrides(self, cache_dir, tmp_path, capsys):
        from repro.__main__ import main

        spec = PlanSpec(**MICRO)
        path = spec.to_file(tmp_path / "plan.toml")
        code = main(["plan", str(path), "--objective", "energy",
                     "--cache-dir", str(cache_dir)])
        assert code == 0
        assert "objective energy" in capsys.readouterr().out

    def test_bad_constraint_exits_2(self, capsys):
        from repro.__main__ import main

        code = main(["plan", "--constraint", "error<0.05"])
        assert code == 2
        assert "constraint" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--budget", "--eta", "--initial",
                                      "--plan-seed"])
    def test_removed_search_flags_exit_2(self, flag, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["plan", flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
