"""The planning engine: one exhaustive sweep plus a Pareto filter.

:func:`run_plan` answers the paper's design question — *which design
configuration minimizes DRAM traffic (or any other metric) within an
output-error budget?* — the way the paper's own evaluation does, with
no sampling:

1. enumerate every candidate of the :class:`~repro.planner.spec.PlanSpec`
   space (:func:`~repro.planner.space.enumerate_candidates`);
2. evaluate all of them at full fidelity in **one**
   :func:`~repro.harness.sweep.run_sweep` over the grid
   ``designs x T2`` (the baseline plus every candidate design, crossed
   with every T2 override).  The evaluations are ordinary sweep job
   units, so a plan shares the on-disk result cache, the process pool,
   the trace store and bit-identical results with sweeps and
   experiments of the same configurations, and a warm re-plan executes
   nothing;
3. drop the candidates that violate a constraint, keep the
   non-dominated rest over the plan's Pareto metrics, and order that
   front by the objective.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..common.config import SystemConfig
from ..designs import BASELINE, DesignSpec, register_design
from ..harness.sweep import SweepSpec, run_sweep
from .pareto import metric_matrix, nondominated_mask
from .space import Candidate, enumerate_candidates
from .spec import MAXIMIZE, PlanSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiment import ExperimentSpec
    from ..harness.runner import WorkloadEvaluation

__all__ = ["CandidateOutcome", "PlanResult", "PlanStats", "run_plan"]


@dataclass
class PlanStats:
    """What one plan evaluated and executed."""

    #: size of the enumerated candidate space (all evaluated)
    candidates: int = 0
    #: sweep jobs actually executed (not served from the cache) — a
    #: warm re-plan keeps this at zero
    jobs_executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(frozen=True)
class CandidateOutcome:
    """One candidate's measured metrics."""

    candidate: Candidate
    #: every :data:`~repro.planner.spec.METRICS` entry, measured
    metrics: dict[str, float] = field(compare=False)
    feasible: bool = True

    def to_mapping(self) -> dict[str, Any]:
        """JSON-able form (reports, ``repro plan --json``)."""
        return {
            "key": self.candidate.key(),
            "design": self.candidate.design.name,
            "t2": self.candidate.t2,
            "feasible": self.feasible,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
        }


@dataclass
class PlanResult:
    """A finished plan: every outcome, the front, and the accounting."""

    spec: PlanSpec
    #: one outcome per enumerated candidate, in enumeration order
    outcomes: tuple[CandidateOutcome, ...]
    #: non-dominated, feasible outcomes
    front: tuple[CandidateOutcome, ...]
    #: the front ordered by the plan objective (best first)
    recommended: tuple[CandidateOutcome, ...]
    stats: PlanStats

    def recommended_designs(self) -> tuple[DesignSpec, ...]:
        """The design specs behind :attr:`recommended`, best first."""
        seen: list[DesignSpec] = []
        for outcome in self.recommended:
            if outcome.candidate.design not in seen:
                seen.append(outcome.candidate.design)
        return tuple(seen)

    def prune_experiment(self, experiment: "ExperimentSpec") -> "ExperimentSpec":
        """Narrow an experiment grid to this plan's recommendations.

        The sweep pre-pruning seam: the experiment's ``designs`` axis
        is replaced by the front's designs (derived variants are
        registered so their names resolve), and — when this plan
        searched a T2 axis — its ``t2_thresholds`` axis is replaced by
        the T2 values the front actually uses.
        """
        if not self.front:
            raise ValueError(
                "cannot prune an experiment from an empty Pareto front "
                "(no feasible candidates)"
            )
        names: list[str] = []
        for design in self.recommended_designs():
            register_design(design)
            names.append(design.name)
        t2s: tuple[float, ...] | None = None
        if self.spec.t2_thresholds:
            t2s = tuple(sorted({
                o.candidate.t2
                for o in self.recommended
                if o.candidate.t2 is not None
            }))
        return experiment.pruned(tuple(names), t2s)

    def to_mapping(self) -> dict[str, Any]:
        """JSON-able summary of the whole plan."""
        return {
            "name": self.spec.name,
            "plan_hash": self.spec.content_hash(),
            "workload": self.spec.workload,
            "objective": self.spec.objective,
            "constraints": list(self.spec.constraints),
            "pareto_metrics": list(self.spec.pareto_metrics),
            "candidates": len(self.outcomes),
            "front": [o.to_mapping() for o in self.front],
            "recommended": [o.candidate.label() for o in self.recommended],
            "stats": asdict(self.stats),
        }


def _metrics(
    evaluation: "WorkloadEvaluation", design: DesignSpec
) -> dict[str, float]:
    """Every plan metric of ``design`` at one evaluated grid point."""
    run = evaluation.runs[design]
    return {
        "traffic": evaluation.normalized(design, "traffic"),
        "time": evaluation.normalized(design, "time"),
        "amat": evaluation.normalized(design, "amat"),
        "mpki": evaluation.normalized(design, "mpki"),
        "energy": evaluation.normalized(design, "energy"),
        "error": run.output_error,
        "compression": run.compression_ratio,
    }


def run_plan(
    spec: PlanSpec | str | Path,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    engine: str | None = None,
    trace_store: str | Path | bool | None = None,
    executor: Any | None = None,
    on_unit_done: Any | None = None,
) -> PlanResult:
    """Execute a plan spec (or spec file) end to end.

    ``jobs`` / ``cache_dir`` / ``engine`` / ``trace_store`` override
    the spec's execution settings without touching its identity,
    mirroring :func:`~repro.experiment.run_experiment`; ``executor`` /
    ``on_unit_done`` thread a caller-owned
    :class:`~repro.harness.sweep.JobExecutor` and per-unit progress
    hook through the sweep (the ``repro serve`` daemon's seam).
    Planning is deterministic: re-running the same plan yields an
    identical :class:`PlanResult`, and with a warm cache it executes
    zero sweep jobs.
    """
    if isinstance(spec, (str, Path)):
        spec = PlanSpec.from_file(spec)
    if engine is not None:
        spec = replace(spec, engine=engine)
    candidates = enumerate_candidates(spec)
    designs: list[DesignSpec] = [BASELINE]
    for candidate in candidates:
        if candidate.design not in designs:
            designs.append(candidate.design)
    thresholds = tuple(dict.fromkeys(c.thresholds() for c in candidates))
    sweep = run_sweep(
        SweepSpec(
            workloads=(spec.workload,),
            designs=tuple(designs),
            config=SystemConfig.scaled(num_cores=spec.resolved_cores()),
            scales=(spec.scale,),
            seeds=(spec.trace_seed,),
            thresholds=thresholds,
            max_accesses_per_core=spec.max_accesses_per_core,
            engine=spec.engine,
        ),
        jobs=jobs if jobs is not None else spec.jobs,
        cache_dir=cache_dir if cache_dir is not None else spec.cache_dir,
        trace_store=trace_store if trace_store is not None else spec.trace_store,
        executor=executor,
        on_unit_done=on_unit_done,
    )

    constraints = spec.parsed_constraints()
    outcomes: list[CandidateOutcome] = []
    for candidate in candidates:
        metrics = _metrics(sweep[candidate.sweep_point(spec)], candidate.design)
        outcomes.append(
            CandidateOutcome(
                candidate=candidate,
                metrics=metrics,
                feasible=all(c.satisfied(metrics[c.metric]) for c in constraints),
            )
        )
    feasible = [o for o in outcomes if o.feasible]
    mask = nondominated_mask(
        metric_matrix([o.metrics for o in feasible], spec.pareto_metrics)
    )
    front = tuple(o for o, keep in zip(feasible, mask) if keep)
    sign = -1.0 if spec.objective in MAXIMIZE else 1.0
    recommended = tuple(
        sorted(
            front,
            key=lambda o: (sign * o.metrics[spec.objective], o.candidate.key()),
        )
    )
    return PlanResult(
        spec=spec,
        outcomes=tuple(outcomes),
        front=front,
        recommended=recommended,
        stats=PlanStats(
            candidates=len(candidates),
            jobs_executed=sweep.stats.executed,
            cache_hits=sweep.stats.cache_hits,
            cache_misses=sweep.stats.cache_misses,
        ),
    )
