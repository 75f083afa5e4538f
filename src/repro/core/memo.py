"""Bounded memos for the hot-path fast lanes.

Bulk's premise is that set-of-addresses work collapses into cheap
register operations; the Python reproduction pays per-address dict
walks and per-commit re-decodes for what hardware gets for free.  The
fast paths memoise those pure functions:

* ``SignatureConfig.flat_mask`` — address -> packed encode mask;
* ``DeltaDecoder.decode`` — flat signature int -> cache-set bitmask;
* ``rle_encode`` — flat signature int -> commit-packet bytes.

Every memo is a :class:`Memo`: a dict capped at its capacity that
evicts its oldest entry, whose hits do not reorder entries.  Capacity
bounds matter because long word-granularity TLS grid runs would
otherwise grow the address memo without limit (one entry per distinct
word touched).

All memoised functions are *pure* in ``(config, key)`` — the memos are
strictly semantics-preserving and the golden reproduce artifacts stay
byte-identical with them enabled (which is the default).

Counters are surfaced through :func:`memo_stats` only.  They are *not*
folded into the metrics snapshots: golden runs pin ``metrics.json`` byte
for byte, so new counters must stay out of the observability surface.
``tests/core/test_memo_hits.py`` requires each memo above to hit where
it pays: the address-encode and decode memos in a TM comparison, the
RLE memo in a TLS one.  The end-to-end benchmark reports their hit
rates per workload.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional

__all__ = [
    "Memo",
    "memo_stats",
    "DEFAULT_FLAT_MASK_CAPACITY",
    "DEFAULT_DECODE_CAPACITY",
    "DEFAULT_RLE_CAPACITY",
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

#: RLE memo bound.  Hits come from commits that send a signature
#: already encoded.  In TLS, a commit's write signature is often the
#: spawn-time snapshot its child's spawn flush encoded, and empty shadow
#: signatures repeat.  In TM, only a thread whose successive
#: transactions write the same lines repeats one (lu's elimination
#: steps); most kernels' commits are all distinct.
DEFAULT_RLE_CAPACITY = 1 << 12

#: label -> ``[hits, misses]``, shared by every memo of that label.
_COUNTS: Dict[str, List[int]] = {}


class Memo:
    """A size-capped memo that evicts its oldest entry.

    ``get`` leaves the entry order alone, so eviction is by insertion
    order; for a pure function that returns the same values as any
    other policy.  ``counts`` is the ``[hits, misses]`` pair of the
    memo's label, shared with every other memo of that label.  No
    memoised value is ``None``, so ``None`` marks a miss.
    """

    __slots__ = ("capacity", "counts", "_data")

    def __init__(self, label: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"Memo capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.counts = _COUNTS.setdefault(label, [0, 0])
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Any:
        """The memoised value, or ``None`` on a miss."""
        value = self._data.get(key)
        if value is None:
            self.counts[1] += 1
        else:
            self.counts[0] += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the oldest entry when full."""
        data = self._data
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)


def memo_stats(label: Optional[str] = None) -> Dict[str, Dict[str, int]]:
    """Hit and miss counts per memo label, since the process started.

    Per-process and advisory.  With ``label`` the result holds that one
    entry (zeroes if no memo of that label was ever built); otherwise
    every label seen so far, sorted.
    """
    labels = [label] if label is not None else sorted(_COUNTS)
    out: Dict[str, Dict[str, int]] = {}
    for name in labels:
        hits, misses = _COUNTS.get(name, (0, 0))
        out[name] = {"hits": hits, "misses": misses}
    return out
