"""Cache-key byte stability and the canonicalizer's memo safety.

Two kinds of tests live here:

* **Golden keys.** Every result-cache, trace-store and spec-identity
  digest the harness builds is pinned to its exact hex value.  Cache
  entries written by one commit are read by the next only if these
  bytes never move, and the benchmark cannot notice a drift (it fills
  its caches with the code under test), so any change to a pinned
  digest is a deliberate cache invalidation and must come with a
  ``__version__`` bump.
* **Memo safety.** :func:`repro.harness.cache._canonical` memoizes the
  canonical text of frozen, immutable-subtree dataclass instances.  A
  plain, memo-free copy of the canonicalizer (``_reference_canonical``
  below) is the differential oracle: the memoized version must agree
  with it on every value, including values built to trip a memo keyed
  by value equality or carried across a mutation, ``replace``, pickle
  or deepcopy.
"""

from __future__ import annotations

import dataclasses
import pickle
from copy import deepcopy
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.approx import ApproxMemory
from repro.common.config import CacheConfig, SystemConfig
from repro.common.types import ErrorThresholds
from repro.designs import get_design
from repro.experiment import ExperimentSpec
from repro.harness.cache import _canonical, content_key
from repro.harness.scenario import (
    ScenarioPoint,
    scenario_timing_key,
    scenario_trace_key,
)
from repro.harness.sweep import (
    SweepPoint,
    SweepSpec,
    functional_job_key,
    run_sweep,
    timing_job_key,
)
from repro.planner.spec import PlanSpec
from repro.scenario import get_scenario
from repro.trace import trace_key
from repro.workloads.base import Phase, TraceSpec
# The hypothesis strategies of the existing canonicalizer properties,
# reused so the oracle covers exactly those cases.
from test_sweep import TestCanonicalProperties as _sweep_props

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

CONFIG = SystemConfig(
    num_cores=2,
    l1=CacheConfig(2 * 1024, 4, 1),
    l2=CacheConfig(8 * 1024, 8, 8),
    llc=CacheConfig(32 * 1024, 16, 15),
)


def _reference_canonical(obj: Any) -> str:
    """The canonicalizer without fast paths or memo: the oracle."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={_reference_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
            if f.compare
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, dict):
        items = ",".join(
            f"{_reference_canonical(k)}:{_reference_canonical(v)}"
            for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_reference_canonical(v) for v in obj) + ")"
    if isinstance(obj, float):
        return obj.hex()
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    raise TypeError(f"cannot build a cache key from {type(obj).__name__}")


def assert_agrees(value: Any) -> None:
    """New canonicalizer == oracle, on a cold and on a memoized pass."""
    expected = _reference_canonical(value)
    assert _canonical(value) == expected
    assert _canonical(value) == expected


# ----------------------------------------------------------------------
# Golden digests (computed at version 1.10.0, before the memo existed)
# ----------------------------------------------------------------------
POINTS = (
    SweepPoint("heat", scale=0.15, max_accesses_per_core=8_000,
               workload_kwargs=(("iterations", 10),)),
    SweepPoint("kmeans", scale=0.3, seed=2,
               thresholds=ErrorThresholds.from_t2(0.05)),
)
DESIGNS = ("baseline", "AVR")


def _golden_keys() -> dict[str, str]:
    keys: dict[str, str] = {}
    for i, point in enumerate(POINTS):
        for name in DESIGNS:
            design = get_design(name)
            keys[f"functional/{i}/{name}"] = functional_job_key(point, design)
            keys[f"timing/{i}/{name}"] = timing_job_key(point, design, CONFIG)
    keys["timing/0/AVR/options"] = timing_job_key(
        POINTS[0], get_design("AVR"), CONFIG, {"enable_dbuf": False}
    )
    spoint = ScenarioPoint(
        scenario=get_scenario("heat+lbm").scaled(0.15),
        seed=1,
        thresholds=ErrorThresholds.from_t2(0.1),
        max_accesses_per_core=3_000,
    )
    config8 = SystemConfig.scaled(num_cores=8)
    keys["scenario-timing/full"] = scenario_timing_key(
        spoint, get_design("AVR"), config8, (0, 1)
    )
    keys["scenario-timing/solo"] = scenario_timing_key(
        spoint, get_design("baseline"), config8, (1,)
    )
    keys["scenario-trace"] = scenario_trace_key(spoint, 8)
    mem = ApproxMemory()
    mem.alloc("data", 16 * 1024 // 4)
    keys["trace"] = trace_key(
        TraceSpec(4, (Phase("data", gap=9),)), mem, 2, 5_000, 0
    )
    keys["experiment"] = ExperimentSpec.from_file(
        EXAMPLES / "experiment_spec.toml"
    ).content_hash()
    keys["plan"] = PlanSpec.from_file(EXAMPLES / "plan_spec.toml").content_hash()
    return keys


GOLDEN = {
    "functional/0/baseline":
        "f33c79ed3e192e16972ed42a6314da15d29647e3fd09eb9239337141f5a84ecb",
    "timing/0/baseline":
        "3e618b0826b384f33599f4be2a599833980df1c1e09b9ccc41c4a4d9fb7c217e",
    "functional/0/AVR":
        "0bfbc4ca51e8ffe7279e2440d19bed446dfcff97eefe5b561e55b287e3cdc440",
    "timing/0/AVR":
        "ce9c2ba87867e872c17b7b168a55c03ef79d69e820b7490f2f6e85c43d28a57d",
    "functional/1/baseline":
        "a26637d8f3e5f71c5cbaf2cf4451e06879c0d87dd96e0a96b060f7295279bca4",
    "timing/1/baseline":
        "1bfb53b5f076c89f39896e7ecaac54c8c36509030175e201e0c50a7403f88d97",
    "functional/1/AVR":
        "635fe85072ca201f1a160fd6146f6f61a6e204901b0a3bbdea8a4d2d0c0fa38d",
    "timing/1/AVR":
        "ffd58fe28578dace500ee7802fff2efab1e336675dff93c4171a53e11aab201b",
    "timing/0/AVR/options":
        "3a444c21d4aedf2c03cad5c1dbfd9e4be2c690d89f5723ddf4c4fbe1aed9e7b0",
    "scenario-timing/full":
        "7cb57e4db1ff974c8c0ed9d4f2af53b713d0faad103036e599fe95c7f2005121",
    "scenario-timing/solo":
        "95839d1c20b4e033bcf6d9809bc9f179f73c16e2dbb0a37aeed54bd7f5aa19bb",
    "scenario-trace":
        "233b5b0bf05210fc684ccba73d5fc683339cf00fb02230e048d250bf1012a21a",
    "trace":
        "e87440569abdb1165a6b8b677d11ccfa4123183821dac431f7cb61b0ff75ff51",
    "experiment":
        "7b128b07b0d2609b9187ec19c64fbd38c3254447690cff553639e7e56f433a45",
    # folds in no __version__: moves only when PlanSpec's identity
    # fields change (last: the halving/surrogate knobs were removed)
    "plan":
        "0385ae8ee7657edd717d134ea6504fa6e8b28d4e83da8440987df5ccf37ecdcc",
}


class TestGoldenKeys:
    def test_version_is_the_pinned_one(self):
        # Every digest below folds in __version__; a bump is the one
        # sanctioned way to move them (update GOLDEN in the same commit).
        assert repro.__version__ == "1.10.0"

    def test_keys_are_byte_identical(self):
        assert _golden_keys() == GOLDEN

    def test_keys_are_stable_on_memoized_instances(self):
        # Second pass runs entirely off the per-instance memos.
        assert _golden_keys() == _golden_keys() == GOLDEN


# ----------------------------------------------------------------------
# Memo safety: the memoized canonicalizer against the oracle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Holder:
    """Frozen, but its subtree is mutable: never memoized."""

    items: list
    label: str = "x"


@dataclass(frozen=True)
class Outer:
    inner: Any
    n: int = 0


@dataclass
class Mutable:
    value: Any


@dataclass(frozen=True, slots=True)
class Slotted:
    value: Any


class Colour(str, Enum):
    RED = "red"


class TestMemoAgreesWithOracle:
    """Every hypothesis case of ``test_sweep.TestCanonicalProperties``."""

    @given(_sweep_props.values)
    def test_values(self, value):
        assert_agrees(value)
        assert_agrees(deepcopy(value))

    @given(st.dictionaries(st.text(max_size=4), _sweep_props.scalars, max_size=6))
    def test_dicts(self, mapping):
        assert_agrees(mapping)
        assert_agrees(dict(reversed(list(mapping.items()))))

    @given(_sweep_props.scalars, _sweep_props.scalars)
    def test_scalars(self, a, b):
        assert_agrees(a)
        assert_agrees(b)

    @given(_sweep_props.values)
    def test_values_inside_a_spec_dataclass(self, value):
        point = SweepPoint("heat", scale=0.5, workload_kwargs=(("v", value),))
        twin = SweepPoint(
            "heat", scale=0.5, workload_kwargs=(("v", deepcopy(value)),)
        )
        assert_agrees(point)
        assert_agrees(Outer(point))
        assert content_key(point) == content_key(twin)

    def test_spec_values(self):
        for value in (
            CONFIG,
            SystemConfig.scaled(num_cores=8),
            get_design("AVR"),
            get_design("truncate-16"),
            ErrorThresholds.from_t2(0.05),
            get_scenario("all7"),
            *POINTS,
        ):
            assert_agrees(value)

    def test_subclass_scalars_take_the_fallback_chain(self):
        # a str-valued Enum is an Enum first; numpy floats are floats
        for value in (
            Colour.RED,
            np.float64(0.1),
            True,
            b"raw",
            (1, 1.0, True, None, "s"),
            Outer((Colour.RED, np.float64(2.5))),
        ):
            assert_agrees(value)
        assert _canonical(Colour.RED) == "Colour.RED"
        assert _canonical(np.float64(0.1)) == (0.1).hex()


class TestMemoIsPerInstance:
    def test_equal_points_with_int_and_float_scale_key_apart(self):
        as_int, as_float = SweepPoint("heat", scale=1), SweepPoint("heat", scale=1.0)
        # Equal and hashing alike, so a memo keyed by value would alias
        # them; keys must not.
        assert as_int == as_float and hash(as_int) == hash(as_float)
        forward = (content_key(as_int), content_key(as_float))
        again = (SweepPoint("heat", scale=1), SweepPoint("heat", scale=1.0))
        backward = (content_key(again[1]), content_key(again[0]))
        assert forward[0] != forward[1]
        assert forward == backward[::-1]
        assert_agrees(as_int)
        assert_agrees(as_float)

    def test_frozen_holder_of_a_list_tracks_mutation(self):
        holder = Holder([1, 2])
        before = content_key(holder)
        holder.items.append(3)
        assert content_key(holder) != before
        assert_agrees(holder)
        # ... also when the list sits deeper, below a memo-eligible type
        outer = Outer(Outer(Holder([1])))
        before = content_key(outer)
        outer.inner.inner.items.append(2)
        assert content_key(outer) != before
        assert_agrees(outer)

    def test_dict_below_a_frozen_instance_tracks_mutation(self):
        outer = Outer({"a": 1})
        before = content_key(outer)
        outer.inner["b"] = 2
        assert content_key(outer) != before
        assert_agrees(outer)

    def test_mutable_dataclass_tracks_mutation(self):
        value = Mutable(1)
        before = content_key(Outer(value))
        value.value = 2
        assert content_key(Outer(value)) != before
        assert_agrees(Outer(value))

    def test_replace_does_not_inherit_the_memo(self):
        point = POINTS[1]
        content_key(point)
        for changed in (
            replace(point, scale=0.25),
            replace(point, thresholds=None),
            replace(point, thresholds=ErrorThresholds.from_t2(0.2)),
        ):
            assert content_key(changed) != content_key(point)
            assert_agrees(changed)
        config = replace(CONFIG, llc=CacheConfig(64 * 1024, 16, 15))
        assert content_key(config) != content_key(CONFIG)
        assert_agrees(config)

    @pytest.mark.parametrize("copy", [
        lambda v: pickle.loads(pickle.dumps(v)),
        deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trips_keep_the_key(self, copy):
        for value in (*POINTS, CONFIG, get_design("AVR"), Holder([1])):
            before = content_key(value)  # memoizes where eligible
            twin = copy(value)
            assert content_key(twin) == before
            assert_agrees(twin)
            assert twin == value

    def test_slotted_frozen_dataclass(self):
        value = Slotted((1, 2.5))
        assert_agrees(value)
        assert content_key(value) == content_key(Slotted((1, 2.5)))

    def test_unknown_types_still_raise(self):
        with pytest.raises(TypeError):
            content_key(Outer((1, object())))
        with pytest.raises(TypeError):
            content_key(SweepPoint)  # a dataclass *type* is not a value
        with pytest.raises(TypeError):
            content_key(np.int64(3))

    def test_design_identity_survives_copies(self):
        design = get_design("avr-conservative")
        for twin in (pickle.loads(pickle.dumps(design)), deepcopy(design)):
            assert twin == design and hash(twin) == hash(design)
        changed = replace(design, thresholds_scale=0.25)
        assert changed != design
        assert changed == replace(design, thresholds_scale=0.25)
        assert hash(changed) == hash(replace(design, thresholds_scale=0.25))


class TestKeysBuiltOncePerSweep:
    def test_every_timing_key_is_built_once(self, monkeypatch):
        import repro.harness.scenario as scenario_module
        import repro.harness.sweep as sweep_module

        built: list[tuple[str, str]] = []

        def counting(module):
            original = module.content_key

            def content_key(*parts):
                key = original(*parts)
                built.append((parts[0], key))
                return key

            monkeypatch.setattr(module, "content_key", content_key)

        counting(sweep_module)
        counting(scenario_module)
        spec = SweepSpec(
            workloads=("heat",),
            designs=("baseline", "AVR", "ZeroAVR"),
            config=CONFIG,
            scales=(0.1,),
            thresholds=(None, ErrorThresholds.from_t2(0.05)),
            max_accesses_per_core=1_000,
            workload_kwargs=(("iterations", 4),),
            scenarios=(get_scenario("heat@1+lbm@1"),),
        )
        run_sweep(spec, jobs=1, trace_store=False)
        timing = [key for kind, key in built if kind.endswith("timing")]
        # 2 points x 3 designs, plus 3 subsets x 3 designs x 2 thresholds
        assert len(timing) == len(set(timing)) == 6 + 18
