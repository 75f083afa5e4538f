"""Bounded memo caches for the hot-path fast lanes.

Bulk's premise is that set-of-addresses work collapses into cheap
register operations; the Python reproduction pays per-address dict
walks and per-commit re-decodes for what hardware gets for free.  The
fast paths memoise those pure functions:

* ``SignatureConfig.flat_mask`` — address -> packed encode mask;
* ``DeltaDecoder.decode`` (via :class:`~repro.core.decode.CachedDecoder`)
  — flat signature int -> cache-set bitmask;
* ``rle_encode`` — flat signature int -> commit-packet bytes.

Every memo is a :class:`LruCache`: a size-capped least-recently-used
dict with hit/miss counters.  Capacity bounds matter because long
word-granularity TLS grid runs would otherwise grow the address memo
without limit (one entry per distinct word touched).

All cached functions are *pure* in ``(config, key)`` — the memos are
strictly semantics-preserving and the golden reproduce artifacts stay
byte-identical with them enabled (which is the default).

Counters are surfaced through :func:`memo_stats` only.  They are *not*
folded into the metrics snapshots: golden runs pin ``metrics.json`` byte
for byte, so new counters must stay out of the observability surface.
``tests/core/test_memo_hits.py`` requires the three memos above to hit
in a timed-bus TM comparison, and the end-to-end benchmark reports their
hit rates per workload.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional
from weakref import WeakSet

__all__ = [
    "LruCache",
    "memo_stats",
    "DEFAULT_FLAT_MASK_CAPACITY",
    "DEFAULT_DECODE_CAPACITY",
    "DEFAULT_RLE_CAPACITY",
    "DEFAULT_LINE_MASK_CAPACITY",
]

#: Address-encode memo bound.  One entry per distinct granule address a
#: config has ever encoded; 64Ki entries cover every workload in the
#: repo with room to spare while capping worst-case growth on long
#: word-granularity sweeps.
DEFAULT_FLAT_MASK_CAPACITY = 1 << 16

#: Decode memo bound.  Keys are whole flat signature ints; commits
#: re-decode the same committed signature once per receiver cache, so a
#: small working set dominates.
DEFAULT_DECODE_CAPACITY = 1 << 12

#: RLE memo bound.  Commit-packet sizing re-encodes the same signature
#: for the packet header and the bandwidth charge.
DEFAULT_RLE_CAPACITY = 1 << 12

#: Line→word-mask memo bound (the word-granularity expansion membership
#: fast path).  One entry per distinct *line* a config has expanded
#: against, so 16x fewer keys than the word-level flat-mask memo needs.
DEFAULT_LINE_MASK_CAPACITY = 1 << 14


class LruCache:
    """A size-capped least-recently-used mapping with hit/miss counters.

    A thin wrapper over :class:`collections.OrderedDict`: ``get`` moves
    the entry to the MRU end, ``put`` evicts the LRU entry once
    ``capacity`` is exceeded.  Instances register themselves (weakly)
    under ``label`` so :func:`memo_stats` can aggregate counters
    per fast path without keeping caches alive.
    """

    __slots__ = ("label", "capacity", "hits", "misses", "evictions", "_data", "__weakref__")

    def __init__(self, label: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"LruCache capacity must be positive, got {capacity}")
        self.label = label
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        _REGISTRY.setdefault(label, WeakSet()).add(self)

    def __del__(self) -> None:
        # Fold this cache's counters into the per-label retirement totals
        # so short-lived caches (a BDM's decoder dies with its run) still
        # show up in memo_stats afterwards.  Guarded: __del__ may run
        # during interpreter shutdown with module globals torn down.
        try:
            retired = _RETIRED.setdefault(
                self.label, {"hits": 0, "misses": 0, "evictions": 0}
            )
            retired["hits"] += self.hits
            retired["misses"] += self.misses
            retired["evictions"] += self.evictions
        except Exception:  # pragma: no cover - shutdown only
            pass

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (now MRU) or ``default`` on a miss."""
        data = self._data
        value = data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key`` as MRU, evicting the LRU entry when full."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "capacity": self.capacity,
        }


class _Missing:
    __slots__ = ()


_MISSING = _Missing()

#: label -> weak set of live caches carrying that label.
_REGISTRY: Dict[str, "WeakSet[LruCache]"] = {}

#: label -> counters folded in from garbage-collected caches.
_RETIRED: Dict[str, Dict[str, int]] = {}


def memo_stats(label: Optional[str] = None) -> Dict[str, Dict[str, int]]:
    """Aggregate hit/miss/eviction counters for the memo caches.

    Per-process and advisory.  Live caches contribute their counters and
    sizes; caches already garbage collected contribute the counters they
    retired with (``size``/``caches`` count live caches only).  With
    ``label`` the result holds that one entry (zeroes if no such cache
    ever existed); otherwise every label seen so far, sorted.
    """
    if label is not None:
        labels = [label]
    else:
        labels = sorted(set(_REGISTRY) | set(_RETIRED))
    out: Dict[str, Dict[str, int]] = {}
    for name in labels:
        totals = {"hits": 0, "misses": 0, "evictions": 0, "size": 0, "caches": 0}
        retired = _RETIRED.get(name)
        if retired is not None:
            totals["hits"] = retired["hits"]
            totals["misses"] = retired["misses"]
            totals["evictions"] = retired["evictions"]
        for cache in _REGISTRY.get(name, ()):
            totals["hits"] += cache.hits
            totals["misses"] += cache.misses
            totals["evictions"] += cache.evictions
            totals["size"] += len(cache)
            totals["caches"] += 1
        out[name] = totals
    return out

