"""repro — Bulk Disambiguation of Speculative Threads in Multiprocessors.

A full reproduction of Ceze, Tuck, Caşcaval and Torrellas (ISCA 2006):
address signatures with bulk operations, the Bulk Disambiguation Module,
TM and TLS system simulators with exact Eager/Lazy baselines, the
evaluated workloads, and the harness regenerating every table and figure
of the paper's evaluation.

Quick start::

    from repro import Signature, default_tm_config

    config = default_tm_config()           # S14, line addresses
    w_committer = Signature(config)
    w_committer.add(0x1000 >> 6)           # add a line address
    r_receiver = Signature(config)
    r_receiver.add(0x1000 >> 6)
    assert w_committer.intersects(r_receiver)   # dependence: squash

See ``examples/`` for complete TM and TLS runs and ``python -m repro
reproduce`` for every table and figure of the evaluation.
"""

from repro.core.bdm import BulkDisambiguationModule, SetRestrictionAction, VersionContext
from repro.core.decode import DeltaDecoder
from repro.core.disambiguation import DisambiguationResult, disambiguate
from repro.core.expansion import expand_signature, line_may_be_in
from repro.core.permutation import BitPermutation
from repro.core.rle import rle_decode, rle_encode, rle_size_bits
from repro.core.signature import Signature
from repro.core.signature_config import (
    TABLE8_CONFIGS,
    SignatureConfig,
    default_tls_config,
    default_tm_config,
    table8_config,
)
from repro.core.wordmask import UpdatedWordBitmaskUnit, merge_line
from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry, TLS_L1_GEOMETRY, TM_L1_GEOMETRY
from repro.errors import BulkError
from repro.mem.address import Granularity
from repro.mem.memory import WordMemory

__version__ = "1.0.0"

__all__ = [
    "BulkDisambiguationModule",
    "SetRestrictionAction",
    "VersionContext",
    "DeltaDecoder",
    "DisambiguationResult",
    "disambiguate",
    "expand_signature",
    "line_may_be_in",
    "BitPermutation",
    "rle_decode",
    "rle_encode",
    "rle_size_bits",
    "Signature",
    "SignatureConfig",
    "TABLE8_CONFIGS",
    "default_tls_config",
    "default_tm_config",
    "table8_config",
    "UpdatedWordBitmaskUnit",
    "merge_line",
    "Cache",
    "CacheGeometry",
    "TLS_L1_GEOMETRY",
    "TM_L1_GEOMETRY",
    "BulkError",
    "Granularity",
    "WordMemory",
    "__version__",
]
