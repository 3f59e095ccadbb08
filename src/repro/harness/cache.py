"""Content-addressed on-disk result cache.

Every sweep job (a functional round-trip or a timing replay) is a pure
function of its spec: the :class:`~repro.harness.sweep.SweepPoint`, the
design, the :class:`~repro.common.config.SystemConfig` and the package
version.  :func:`content_key` folds those inputs into a stable SHA-256
digest, and :class:`ResultCache` maps digests to pickled results, so
re-runs and ablation sweeps skip already-computed points.

Keys are built from a *canonical text form* of the inputs (dataclasses
by field, enums by name, dicts sorted) rather than from ``pickle``
bytes, so the digest is stable across interpreter runs and does not
depend on pickle protocol details.  Results themselves are stored with
``pickle`` — numpy arrays round-trip exactly, which the sweep engine's
bit-identical guarantee relies on.

Entries live at ``<root>/<key[:2]>/<key>.pkl``.  Maintenance — orphaned
``*.tmp`` sweeps and LRU-by-mtime eviction under a byte budget — lives
in :meth:`ResultCache.gc` / :meth:`ResultCache.verify` and is exposed
as the ``repro cache`` CLI.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "CacheStats",
    "DiskUsage",
    "GCReport",
    "ResultCache",
    "VerifyReport",
    "content_key",
    "resolve_result_cache",
]


#: instance ``__dict__`` slot holding a frozen dataclass's canonical text
_MEMO = "_canonical_text"


@functools.cache
def _dataclass_shape(cls: type) -> tuple[tuple[str, ...], bool] | None:
    """``(compare-field names, frozen)`` of dataclass type ``cls``, else None.

    Cached per type; the cache grows with the number of distinct value
    types ever keyed, which the spec dataclasses bound.
    """
    if dataclasses.is_dataclass(cls):
        # Fields marked compare=False are outside a value's identity
        # (e.g. a DesignSpec's builder callable) and stay out of keys.
        names = tuple(f.name for f in dataclasses.fields(cls) if f.compare)
        return names, bool(getattr(cls, "__dataclass_params__").frozen)
    return None


def _canonical(obj: Any) -> str:
    """Deterministic text form of a job-spec value.

    Supports the types that appear in sweep specs: dataclasses, enums,
    containers, and scalars.  Unknown objects raise ``TypeError`` so a
    new un-canonicalizable spec field fails loudly instead of silently
    hashing by ``repr`` identity.

    The text of a frozen dataclass instance whose whole subtree is
    immutable (scalars, enums, tuples and other such instances) is
    computed once and memoized on that instance; anything holding a
    ``dict`` or ``list`` is recomputed on every call.
    """
    return _canonical_node(obj)[0]


def _canonical_node(obj: Any) -> tuple[str, bool]:
    """``(canonical text, whether obj's whole subtree is immutable)``."""
    cls = type(obj)
    # Exact scalar types first: the bulk of every key, and none of them
    # can also be a dataclass or an Enum.
    if cls is str or cls is int or cls is bool or obj is None:
        return repr(obj), True
    if cls is float:
        return obj.hex(), True  # exact: no decimal rounding ambiguity
    if cls is tuple:
        return _canonical_sequence(obj)
    shape = _dataclass_shape(cls)
    if shape is not None:
        names, frozen = shape
        state = getattr(obj, "__dict__", None) if frozen else None
        memo = state.get(_MEMO) if state is not None else None
        if memo is not None:
            return memo, True
        parts = []
        immutable = frozen
        for name in names:
            text, leaf_immutable = _canonical_node(getattr(obj, name))
            parts.append(f"{name}={text}")
            immutable = immutable and leaf_immutable
        text = f"{cls.__qualname__}({','.join(parts)})"
        if immutable and state is not None:
            # Keyed by the instance, never by value: equal instances
            # (scale=1 vs scale=1.0) canonicalize differently.
            object.__setattr__(obj, _MEMO, text)
        return text, immutable
    # Subclasses of the scalar and container types, in the original
    # precedence order (a str-valued Enum is an Enum, np.float64 a float).
    if isinstance(obj, Enum):
        return f"{cls.__qualname__}.{obj.name}", True
    if isinstance(obj, dict):
        items = ",".join(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}", False
    if isinstance(obj, tuple):
        return _canonical_sequence(obj)
    if isinstance(obj, list):
        return _canonical_sequence(obj)[0], False
    if isinstance(obj, float):
        return obj.hex(), True
    if isinstance(obj, (bool, int, str, bytes)):
        return repr(obj), True
    raise TypeError(f"cannot build a cache key from {cls.__name__}: {obj!r}")


def _canonical_sequence(items: tuple | list) -> tuple[str, bool]:
    texts = []
    immutable = True
    for item in items:
        text, leaf_immutable = _canonical_node(item)
        texts.append(text)
        immutable = immutable and leaf_immutable
    return "(" + ",".join(texts) + ")", immutable


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``parts``."""
    text = "|".join(_canonical(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class CacheStats:
    """Traffic counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    evictions: int = 0


@dataclass
class GCReport:
    """What one :meth:`ResultCache.gc` pass removed and kept."""

    tmp_removed: int = 0
    evicted: int = 0
    bytes_removed: int = 0
    entries_kept: int = 0
    bytes_kept: int = 0
    dry_run: bool = False


@dataclass
class VerifyReport:
    """Read-only consistency report of an on-disk cache.

    ``corrupt`` lists the entries whose payloads do not unpickle; they
    read as misses and re-execute bit-identically.
    """

    entries: int = 0
    total_bytes: int = 0
    corrupt: list[str] = field(default_factory=list)
    tmp_files: int = 0

    @property
    def ok(self) -> bool:
        """True when every payload on disk unpickles."""
        return not self.corrupt


@dataclass
class DiskUsage:
    """Light-weight (no unpickling) usage summary of an on-disk cache."""

    entries: int = 0
    total_bytes: int = 0
    shards: int = 0
    tmp_files: int = 0


#: pickle failure modes treated as cache misses (torn writes, version
#: skew of pickled classes, foreign entries)
_READ_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
)

#: sentinel distinguishing "absent" from a cached ``None``-ish default
_MISS = object()


class ResultCache:
    """Pickle-per-key store under ``cache_dir``, sharded 256 ways.

    Each entry is ``<root>/<key[:2]>/<key>.pkl``, written atomically
    (temp file + ``os.replace``), so concurrent sweeps sharing a cache
    directory never observe torn entries; unreadable or truncated
    entries are treated as misses.  ``get*`` count hits and misses in
    :attr:`stats`.  Any other file in a shard (e.g. the per-shard index
    an older version kept) is ignored.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.root = Path(cache_dir)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise NotADirectoryError(
                f"cache dir {self.root} exists but is not a directory"
            ) from exc
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _shards(self) -> list[Path]:
        return sorted(
            d for d in self.root.iterdir() if d.is_dir() and len(d.name) == 2
        )

    def _load(self, key: str) -> Any:
        """Read one payload, returning the ``_MISS`` sentinel on failure."""
        try:
            with self._path(key).open("rb") as fh:
                data = fh.read()
            value = pickle.loads(data)
        except _READ_ERRORS:
            return _MISS
        self.stats.bytes_read += len(data)
        return value

    def get(self, key: str, default: Any = None) -> Any:
        """Return the cached value for ``key`` (counted), or ``default``."""
        return self.get_many([key]).get(key, default)

    def get_many(self, keys: Iterable[str]) -> dict[str, Any]:
        """Resolve many keys; absent keys are omitted from the result.

        Counts one hit per returned key and one miss per omitted key.
        """
        results: dict[str, Any] = {}
        for key in keys:
            value = self._load(key)
            if value is not _MISS:
                results[key] = value
            else:
                self.stats.misses += 1
        self.stats.hits += len(results)
        return results

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic replace)."""
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self.stats.bytes_written += len(data)

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Store many entries (each individually atomic)."""
        for key, value in items.items():
            self.put(key, value)

    def keys(self) -> list[str]:
        """Every committed key, sorted."""
        return sorted(path.stem for path in self.root.glob("??/*.pkl"))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.pkl"))

    def disk_usage(self) -> DiskUsage:
        """Summarize the store without unpickling anything."""
        shards = self._shards()
        usage = DiskUsage(shards=len(shards))
        for shard_dir in shards:
            usage.tmp_files += sum(1 for _ in shard_dir.glob("*.tmp"))
            for path in shard_dir.glob("*.pkl"):
                try:
                    usage.total_bytes += path.stat().st_size
                except OSError:
                    continue
                usage.entries += 1
        return usage

    def gc(
        self,
        max_bytes: int | None = None,
        tmp_max_age_s: float = 3600.0,
        dry_run: bool = False,
    ) -> GCReport:
        """Sweep orphaned temp files and evict to a byte budget.

        Two independent passes:

        1. orphaned ``*.tmp`` files older than ``tmp_max_age_s`` are
           removed (the age guard keeps a live writer's in-flight temp
           file safe from a concurrent ``gc``);
        2. with ``max_bytes``, the oldest entries by mtime are evicted
           until the survivors fit the budget (LRU: a hit's ``open``
           does not bump mtime, but re-``put`` does).

        Entries written by an older package version need no separate
        purge: the version is part of every key, so they are never read
        again and, being the oldest, are the first evicted.
        ``dry_run`` reports what *would* go without touching anything.
        """
        report = GCReport(dry_run=dry_run)
        now = time.time()  # repro: ignore[RNG001] - GC ages files, not results
        entries: list[tuple[float, str, Path, int]] = []
        for shard_dir in self._shards():
            for tmp in shard_dir.glob("*.tmp"):
                try:
                    age = now - tmp.stat().st_mtime
                except OSError:
                    continue
                if age >= tmp_max_age_s:
                    report.tmp_removed += 1
                    if not dry_run:
                        tmp.unlink(missing_ok=True)
            for path in shard_dir.glob("*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, path.stem, path, stat.st_size))

        total = sum(size for _, _, _, size in entries)
        for _, _, path, size in sorted(entries):
            if max_bytes is None or total <= max_bytes:
                report.entries_kept += 1
                report.bytes_kept += size
                continue
            total -= size
            report.evicted += 1
            report.bytes_removed += size
            if not dry_run:
                path.unlink(missing_ok=True)
                self.stats.evictions += 1
        return report

    def verify(self) -> VerifyReport:
        """Unpickle every payload; report the corrupt ones."""
        report = VerifyReport()
        for shard_dir in self._shards():
            report.tmp_files += sum(1 for _ in shard_dir.glob("*.tmp"))
            for path in sorted(shard_dir.glob("*.pkl")):
                try:
                    with path.open("rb") as fh:
                        data = fh.read()
                    pickle.loads(data)
                except _READ_ERRORS:
                    report.corrupt.append(path.stem)
                    continue
                report.entries += 1
                report.total_bytes += len(data)
        return report


def resolve_result_cache(
    cache_dir: str | Path | ResultCache | None,
) -> ResultCache | None:
    """Normalize a ``cache_dir`` argument into a :class:`ResultCache`.

    Callers (``run_sweep``, the ablation harness) accept either a
    directory or an already-built cache; passing an instance through
    lets one cache (and its stats) span many calls.  ``None`` stays
    ``None`` (caching disabled).
    """
    if cache_dir is None:
        return None
    if isinstance(cache_dir, ResultCache):
        return cache_dir
    return ResultCache(cache_dir)
