"""Design planner: exhaustive search plus a Pareto filter.

Evaluates every configuration of a :class:`~repro.designs.DesignSpec`
parameter space ("minimize DRAM traffic subject to an output-error
budget") in one full-fidelity sweep, drops the candidates that violate
a constraint, and returns the Pareto front ordered by the objective.
The evaluations are ordinary sweep job units sharing the on-disk
result cache, so plans compose with — and pre-prune — sweeps and
experiments of the same configurations.  Exposed on the CLI as
``repro plan``.
"""

from .engine import CandidateOutcome, PlanResult, PlanStats, run_plan
from .pareto import metric_matrix, nondominated_mask
from .space import Candidate, enumerate_candidates
from .spec import AVR_TOGGLEABLE, MAXIMIZE, METRICS, Constraint, PlanSpec

__all__ = [
    "AVR_TOGGLEABLE",
    "Candidate",
    "CandidateOutcome",
    "Constraint",
    "MAXIMIZE",
    "METRICS",
    "PlanResult",
    "PlanSpec",
    "PlanStats",
    "enumerate_candidates",
    "metric_matrix",
    "nondominated_mask",
    "run_plan",
]
