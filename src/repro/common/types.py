"""Shared enums and small datatypes used across the simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DataType(enum.Enum):
    """Value representation of an approximable region."""

    FLOAT32 = "float32"
    FIXED32 = "fixed32"


class CompressionMethod(enum.IntEnum):
    """Downsampling variant recorded in the CMT ``method`` field.

    The 2-bit field distinguishes an uncompressed block from the two
    placement variants the compressor attempts in parallel.
    """

    UNCOMPRESSED = 0
    DOWNSAMPLE_1D = 1
    DOWNSAMPLE_2D = 2


class AccessType(enum.IntEnum):
    """Type of a memory access in a trace."""

    READ = 0
    WRITE = 1


class LLCRequestOutcome(enum.IntEnum):
    """Outcome classes of an AVR LLC request (Figure 14)."""

    MISS = 0
    HIT_UNCOMPRESSED = 1
    HIT_DBUF = 2
    HIT_COMPRESSED = 3


class EvictionOutcome(enum.IntEnum):
    """Outcome classes of an AVR LLC eviction of a dirty line (Figure 15)."""

    RECOMPRESS = 0
    LAZY_WRITEBACK = 1
    FETCH_RECOMPRESS = 2
    UNCOMPRESSED_WRITEBACK = 3


class Design(enum.Enum):
    """The five paper design points — **deprecated alias layer**.

    Design points are open registry entries now (see
    :mod:`repro.designs`); these enum members remain importable for
    pre-registry code and are accepted anywhere a design is expected
    (every API resolves them through
    :func:`repro.designs.get_design`).  New code should use registry
    names or :class:`~repro.designs.DesignSpec` values — new design
    points exist only in the registry and have no enum member.
    """

    BASELINE = "baseline"
    DGANGER = "dganger"
    TRUNCATE = "truncate"
    ZERO_AVR = "ZeroAVR"
    AVR = "AVR"


#: Design points shown in the figures, in paper order (baseline is the
#: normalization reference and not plotted itself except for energy).
#: Deprecated alias of :data:`repro.designs.COMPARED`.
COMPARED_DESIGNS = (Design.DGANGER, Design.TRUNCATE, Design.ZERO_AVR, Design.AVR)


@dataclass(frozen=True)
class ErrorThresholds:
    """Approximation error knobs exposed by AVR.

    ``t1`` bounds the relative error of each individual value; values
    exceeding it become outliers.  ``t2`` bounds the average relative
    error across the non-outlier values of a block; exceeding it fails
    the whole compression attempt.  The paper uses ``t1 = 2 * t2``.

    Defaults are tight (2 % / 1 %): the paper's iterative benchmarks
    re-approximate their data on every pass through memory, and its
    sub-1 % output errors are only reachable with per-pass error well
    below the output budget.
    """

    t1: float = 0.02
    t2: float = 0.01

    def __post_init__(self) -> None:
        # t2 first: ``from_t2`` derives t1 from it, so a bad t2 is the
        # root cause whenever both are out of range
        if not (0.0 < self.t2 <= 1.0):
            raise ValueError(f"t2 must be in (0, 1], got {self.t2}")
        if not (0.0 < self.t1 <= 1.0):
            raise ValueError(f"t1 must be in (0, 1], got {self.t1}")

    @classmethod
    def from_t2(cls, t2: float) -> "ErrorThresholds":
        """Build thresholds with the paper's ``T1 = 2 * T2`` relation."""
        return cls(t1=min(1.0, 2.0 * t2), t2=t2)
