"""Bulk's core contribution: address signatures and bulk operations.

This package is a bit-exact software model of the hardware proposed in
Sections 3-5 of the paper:

* :mod:`repro.core.permutation` — the address bit permutation of Figure 2.
* :mod:`repro.core.fields` — the C_i chunk / V_i field layout of Figure 2.
* :mod:`repro.core.signature_config` — signature configurations, including
  the S1..S23 catalogue of Table 8 and the paper's default permutations.
* :mod:`repro.core.signature` — the :class:`Signature` itself with the
  primitive bulk operations of Table 1.
* :mod:`repro.core.decode` — the exact decode operation delta(S) into a
  cache-set bitmask.
* :mod:`repro.core.expansion` — signature expansion over a cache (Fig. 4).
* :mod:`repro.core.wordmask` — the Updated Word Bitmask unit and line
  merging of Figure 6.
* :mod:`repro.core.rle` — run-length encoding of commit packets (Sec. 6.1).
* :mod:`repro.core.disambiguation` — Equation 1 bulk disambiguation.
* :mod:`repro.core.bdm` — the Bulk Disambiguation Module of Figure 7.
"""

from repro.core.permutation import BitPermutation
from repro.core.fields import ChunkLayout
from repro.core.signature_config import (
    SignatureConfig,
    TABLE8_CONFIGS,
    TLS_PERMUTATION_SPEC,
    TM_PERMUTATION_SPEC,
    default_tls_config,
    default_tm_config,
    table8_config,
)
from repro.core.signature import Signature
from repro.core.decode import DeltaDecoder
from repro.core.expansion import expand_signature, line_may_be_in
from repro.core.wordmask import UpdatedWordBitmaskUnit, merge_line
from repro.core.rle import rle_decode, rle_encode, rle_size_bits
from repro.core.disambiguation import DisambiguationResult, disambiguate
from repro.core.bdm import BulkDisambiguationModule, SetOwner, VersionContext

__all__ = [
    "BitPermutation",
    "ChunkLayout",
    "SignatureConfig",
    "TABLE8_CONFIGS",
    "TLS_PERMUTATION_SPEC",
    "TM_PERMUTATION_SPEC",
    "default_tls_config",
    "default_tm_config",
    "table8_config",
    "Signature",
    "DeltaDecoder",
    "expand_signature",
    "line_may_be_in",
    "UpdatedWordBitmaskUnit",
    "merge_line",
    "rle_decode",
    "rle_encode",
    "rle_size_bits",
    "DisambiguationResult",
    "disambiguate",
    "BulkDisambiguationModule",
    "SetOwner",
    "VersionContext",
]
