"""Output checks: result digests and the paper's traffic invariant.

Every check works on the plain result mapping the program itself
produces (:func:`repro.harness.report.experiment_result_to_mapping`),
so one-shot results and results streamed by the daemon are checked the
same way.  The mapping carries every ``SimResult`` field and every
design's output error; only the execution accounting (``stats``) is
dropped, because a cold and a warm run legitimately count differently.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def result_mapping(result: Any) -> dict[str, Any]:
    """An ``ExperimentResult`` as the mapping the daemon would send."""
    from repro.harness.report import experiment_result_to_mapping

    return experiment_result_to_mapping(result)


def digest(mapping: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a result mapping (``stats`` excluded).

    ``json`` writes floats with ``repr``, which round-trips exactly, so
    equal digests mean bit-identical results.
    """
    body = {k: v for k, v in mapping.items() if k != "stats"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(digests: list[str]) -> str:
    """One digest over several, in order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def traffic_violations(mapping: dict[str, Any]) -> list[str]:
    """Points where AVR moves more DRAM bytes than the baseline.

    AVR's claim is reduced memory traffic, so at every evaluated point
    its DRAM bytes (read + written) must not exceed the baseline's.
    """
    bad = []
    for evaluation in mapping.get("evaluations", []):
        runs = evaluation["runs"]
        if "AVR" not in runs or "baseline" not in runs:
            continue
        avr, base = runs["AVR"]["timing"], runs["baseline"]["timing"]
        avr_bytes = avr["dram_bytes_read"] + avr["dram_bytes_written"]
        base_bytes = base["dram_bytes_read"] + base["dram_bytes_written"]
        if avr_bytes > base_bytes:
            point = evaluation["point"]
            bad.append(
                f"{point['workload']}@{point['scale']} seed {point['seed']}: "
                f"AVR {avr_bytes} B > baseline {base_bytes} B"
            )
    return bad


def instructions(mapping: dict[str, Any]) -> int:
    """Simulated instructions summed over every timing replay in a result."""
    return sum(
        run["timing"]["instructions"]
        for evaluation in mapping.get("evaluations", [])
        for run in evaluation["runs"].values()
    )


def units(stats: dict[str, Any]) -> int:
    """Job units a run resolved: executed, joined in flight or cache-served."""
    return int(stats["cache_hits"] + stats["cache_misses"])
