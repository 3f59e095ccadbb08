"""Candidate enumeration: the design points a plan searches over.

A :class:`Candidate` is one concrete configuration the planner may
evaluate — a (possibly derived) :class:`~repro.designs.DesignSpec`
plus an optional T2 error-threshold override.  Candidates are built
from the :class:`~repro.planner.spec.PlanSpec` axes by
:func:`enumerate_candidates`, in deterministic order and deduplicated
by identity, so the same spec always enumerates the same space — the
anchor both the cache-key sharing and the determinism guarantee rest
on.

A candidate's evaluation is *not* a new kind of job: it decomposes
into exactly the sweep engine's functional/timing job units (see
:meth:`Candidate.sweep_point`), so a plan shares the on-disk result
cache with ordinary sweeps and experiments of the same
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..common.types import ErrorThresholds
from ..designs import DesignSpec, derive_design, resolve_designs
from ..harness.cache import content_key
from ..harness.sweep import SweepPoint
from .spec import PlanSpec

__all__ = ["Candidate", "enumerate_candidates"]


@dataclass(frozen=True)
class Candidate:
    """One configuration in the search space.

    ``t2`` of ``None`` means the workload's default error thresholds;
    otherwise thresholds follow the paper's ``T1 = 2*T2`` relation.
    Frozen and hashable so candidates key result dictionaries; the
    stable :meth:`key` (a content hash of design identity + T2) names
    them across processes, runs and JSON reports.
    """

    design: DesignSpec
    t2: float | None = None

    def thresholds(self) -> ErrorThresholds | None:
        """The sweep-point threshold override this candidate carries."""
        return ErrorThresholds.from_t2(self.t2) if self.t2 is not None else None

    def key(self) -> str:
        """Stable short identity used in rankings and JSON output."""
        return content_key("candidate", self.design, self.t2)[:16]

    def label(self) -> str:
        """Human-readable display form (tables, logs)."""
        if self.t2 is None:
            return self.design.name
        return f"{self.design.name} t2={self.t2:g}"

    def sweep_point(self, spec: PlanSpec) -> SweepPoint:
        """The sweep grid point evaluating this candidate.

        Workload, scale, trace seed and trace budget come from the plan
        spec and the thresholds from the candidate, so the resulting
        job-unit cache keys are exactly the ones an ordinary sweep of
        the same configuration uses.
        """
        return SweepPoint(
            workload=spec.workload,
            scale=spec.scale,
            seed=spec.trace_seed,
            thresholds=self.thresholds(),
            max_accesses_per_core=spec.max_accesses_per_core,
        )


def _design_variants(spec: PlanSpec) -> Iterator[DesignSpec]:
    """Expand the design axes of ``spec`` into concrete specs.

    Axes apply only where meaningful: ``approx_line_bytes`` widens
    truncate-family designs, ``avr_toggles`` widens AVR-family designs;
    for every other base design those axes collapse to the base itself
    rather than multiplying identical variants.
    """
    for base in resolve_designs(spec.designs):
        widths: tuple[int | None, ...] = (None,)
        if "truncate" in (base.approximator, base.capacity_model):
            widths = tuple(spec.approx_line_bytes) or (None,)
        toggles: tuple[str | None, ...] = (None,)
        if base.llc == "avr":
            toggles = (None,) + tuple(spec.avr_toggles)
        for scale in spec.thresholds_scales:
            for width in widths:
                for toggle in toggles:
                    yield derive_design(
                        base,
                        thresholds_scale=scale,
                        approx_line_bytes=width,
                        avr_options=(
                            ((toggle, False),) if toggle is not None else None
                        ),
                    )


def enumerate_candidates(spec: PlanSpec) -> tuple[Candidate, ...]:
    """Every candidate of ``spec``'s search space, deterministically.

    Order is axis-major (designs, then scales/widths/toggles, then T2
    overrides) with duplicates — axes that collapse onto the same
    design identity — dropped on first occurrence, so the enumeration
    is a pure function of the spec.
    """
    t2s: tuple[float | None, ...] = tuple(spec.t2_thresholds) or (None,)
    seen: set[Candidate] = set()
    out: list[Candidate] = []
    for design in _design_variants(spec):
        for t2 in t2s:
            candidate = Candidate(design=design, t2=t2)
            if candidate in seen:
                continue
            seen.add(candidate)
            out.append(candidate)
    return tuple(out)
