"""Set-associative write-back cache model.

A deliberately *conventional* cache: no speculative bits, no version IDs,
no per-word access bits.  One of Bulk's central claims (Table 2) is that
all speculation bookkeeping lives in the Bulk Disambiguation Module's
signatures, leaving the primary cache untouched; this package is the
structure the BDM wraps.
"""

from repro.cache.geometry import CacheGeometry, TLS_L1_GEOMETRY, TM_L1_GEOMETRY
from repro.cache.line import CacheLine
from repro.cache.cache import Cache

__all__ = [
    "Cache",
    "CacheGeometry",
    "CacheLine",
    "TLS_L1_GEOMETRY",
    "TM_L1_GEOMETRY",
]
