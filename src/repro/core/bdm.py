"""The Bulk Disambiguation Module (Section 4.5, Figure 7).

One BDM sits between each processor's cache and the network.  It holds

* a read and a write signature per supported speculative *version*
  (running thread, preempted threads, checkpoints, nesting sections),
* functional units for the primitive bulk operations, signature expansion,
  and the updated-word bitmask,
* two cache-set bitmask registers: ``delta(W_run)`` for the running
  thread's write signature and ``OR(delta(W_pre))`` for all preempted
  ones.

Because the cache itself carries no speculative metadata, these decoded
bitmasks are the *only* way the processor knows which dirty lines are
speculative and whose they are.  They also let the BDM enforce the **Set
Restriction** (Section 4.3): all dirty lines within one cache set belong
to a single owner — one speculative context, or the non-speculative state.
Together with delta-exact signatures, the restriction is what makes bulk
invalidation of dirty lines safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry
from repro.core.backend.base import SignatureArena, SignatureBackend
from repro.core.backend.codec import note_codec
from repro.core.decode import CachedDecoder
from repro.core.expansion import matched_lines
from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig
from repro.core.wordmask import UpdatedWordBitmaskUnit, merge_line
from repro.errors import ConfigurationError, SetRestrictionError, SimulationError
from repro.mem.address import (
    LINE_SHIFT,
    WORD_SHIFT,
    WORD_TO_LINE_SHIFT,
    Granularity,
)

#: Type of the "read the just-committed line from the network" callback
#: used by the word-merge path of commit-side bulk invalidation.
LineFetcher = Callable[[int], Sequence[int]]


class SetRestrictionAction(enum.Enum):
    """What must happen before a speculative store may update a cache set."""

    #: The running context already owns the set's dirty lines (or will).
    PROCEED = "proceed"
    #: The set's dirty lines are non-speculative: write them back first
    #: (the *Safe WB* events of Tables 6 and 7), then proceed.
    WRITEBACK_NONSPEC = "writeback-nonspec"
    #: A *preempted* speculative context owns dirty lines in the set; a
    #: special action is needed (preempt the writer, squash the owner, or
    #: merge threads — Section 4.5).  The systems here squash the more
    #: speculative of the two, matching the paper's TLS evaluation.
    CONFLICT = "conflict"


@dataclass
class BdmStats:
    """Counters a BDM accumulates, feeding Tables 6 and 7."""

    safe_writebacks: int = 0
    set_restriction_conflicts: int = 0
    commit_invalidations: int = 0
    false_commit_invalidations: int = 0
    merged_lines: int = 0
    squash_invalidations: int = 0
    overflow_checks_filtered: int = 0
    nacked_external_requests: int = 0


class VersionContext:
    """One speculative version's signature state within a BDM.

    ``backend`` selects the signature storage
    (:mod:`repro.core.backend`); ``None`` keeps the default packed
    registers.  ``arena`` optionally supplies the registers from a
    shared :class:`~repro.core.backend.base.SignatureArena`, so all of
    a BDM's contexts live in one allocation (the Figure 7 signature
    file).
    """

    __slots__ = (
        "slot",
        "backend",
        "arena",
        "owner",
        "read_signature",
        "write_signature",
        "shadow_write_signature",
        "delta_mask",
        "overflow",
        "active",
    )

    def __init__(
        self,
        slot: int,
        config: SignatureConfig,
        backend: "Optional[SignatureBackend]" = None,
        arena: "Optional[SignatureArena]" = None,
    ) -> None:
        self.slot = slot
        self.backend = backend
        self.arena = arena
        if arena is not None:
            make = lambda _config: arena.make_signature()  # noqa: E731
        elif backend is not None:
            make = backend.make_signature
        else:
            make = Signature
        self.owner: Optional[int] = None
        self.read_signature = make(config)
        self.write_signature = make(config)
        #: TLS Partial Overlap shadow write signature (Figure 9); ``None``
        #: until :meth:`start_shadow` is called at first-child spawn.
        self.shadow_write_signature: Optional[Signature] = None
        #: Incrementally maintained delta(W) cache-set bitmask.
        self.delta_mask = 0
        #: Overflow bit: set when a dirty speculative line was evicted.
        self.overflow = False
        self.active = False

    def start_shadow(self) -> None:
        """Begin maintaining the shadow write signature (at child spawn)."""
        config = self.write_signature.config
        if self.arena is not None:
            self.shadow_write_signature = self.arena.make_signature()
        elif self.backend is None:
            self.shadow_write_signature = Signature(config)
        else:
            self.shadow_write_signature = self.backend.make_signature(config)

    def clear(self) -> None:
        """Gang-clear all signatures — this is how a thread commits."""
        self.read_signature.clear()
        self.write_signature.clear()
        self.shadow_write_signature = None
        self.delta_mask = 0
        self.overflow = False

    def release(self) -> None:
        """Return the context to the free pool."""
        self.clear()
        self.owner = None
        self.active = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VersionContext(slot={self.slot}, owner={self.owner}, "
            f"active={self.active})"
        )


class SetOwner(enum.Enum):
    """Who may own the dirty lines of a cache set right now."""

    NONSPECULATIVE = "nonspeculative"
    RUNNING = "running"
    PREEMPTED = "preempted"


class BulkDisambiguationModule:
    """Signature file + functional units + Set Restriction logic.

    Parameters
    ----------
    config:
        Signature configuration for every context's R/W registers.
    geometry:
        The attached cache's geometry (for the delta decoder).
    num_contexts:
        How many speculative versions the BDM supports (Figure 7's "# of
        Versions").  When all are in use, :meth:`allocate_context` returns
        ``None`` and the system must spill a context's signatures to
        memory (Section 6.2.2) — modelled by the TM system layer.
    require_exact_delta:
        Enforce the Section 4.3 exactness requirement.  Disable only for
        accuracy experiments that never perform bulk invalidation.
    backend:
        Signature storage backend (:mod:`repro.core.backend`) for every
        context's registers; ``None`` keeps the default packed storage.
    """

    def __init__(
        self,
        config: SignatureConfig,
        geometry: CacheGeometry,
        num_contexts: int = 4,
        require_exact_delta: bool = True,
        backend: "Optional[SignatureBackend]" = None,
    ) -> None:
        if num_contexts <= 0:
            raise ConfigurationError("a BDM needs at least one version context")
        self.config = config
        self.geometry = geometry
        self.backend = backend
        # The memoised decoder is the single swap point that puts the
        # decode fast path under every substrate's expansion sites
        # (TM/TLS commit and squash invalidation, checkpoint rollback).
        self.decoder = CachedDecoder(config, geometry.num_sets)
        self._set_mask = geometry.num_sets - 1
        # Per-access fast-path constants, fixed by the configuration:
        # byte address -> granule is one shift, granule -> cache set is a
        # shift plus the mask (== decoder.set_index_of).
        if config.granularity is Granularity.LINE:
            self._byte_shift = LINE_SHIFT
            self._granule_line_shift = 0
        else:
            self._byte_shift = WORD_SHIFT
            self._granule_line_shift = WORD_TO_LINE_SHIFT
        if require_exact_delta:
            self.decoder.require_exact()
        # The signature file (Figure 7): every context's registers come
        # from one arena — R, W, and a possible shadow W per context —
        # so a backend with matrix storage keeps a whole BDM's
        # signatures in a single (n_rows, n_words) allocation.
        self.arena: Optional[SignatureArena] = (
            None if backend is None else backend.make_arena(config, 3 * num_contexts)
        )
        self.contexts: List[VersionContext] = [
            VersionContext(slot, config, backend, self.arena)
            for slot in range(num_contexts)
        ]
        self.running: Optional[VersionContext] = None
        self.stats = BdmStats()
        self.word_unit: Optional[UpdatedWordBitmaskUnit] = (
            UpdatedWordBitmaskUnit(config)
            if config.granularity is Granularity.WORD
            else None
        )

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------

    def allocate_context(self, owner: int) -> Optional[VersionContext]:
        """Claim a free version context for a thread, or ``None`` if full."""
        for context in self.contexts:
            if not context.active:
                context.active = True
                context.owner = owner
                return context
        return None

    def release_context(self, context: VersionContext) -> None:
        """Free a context (after its thread committed or squashed)."""
        if context is self.running:
            self.running = None
        context.release()

    def set_running(self, context: Optional[VersionContext]) -> None:
        """Context-switch: make ``context`` the running version (or none).

        The preempted context keeps its signatures in the BDM — that is
        the whole point of multi-version support (Section 6.2.2).
        """
        if context is not None and not context.active:
            raise SimulationError("cannot run an inactive version context")
        self.running = context

    def context_of(self, owner: int) -> Optional[VersionContext]:
        """Find the active context owned by a thread id."""
        for context in self.contexts:
            if context.active and context.owner == owner:
                return context
        return None

    def active_contexts(self) -> List[VersionContext]:
        """All contexts currently holding a speculative version."""
        return [context for context in self.contexts if context.active]

    # ------------------------------------------------------------------
    # The two decoded bitmask registers of Figure 7
    # ------------------------------------------------------------------

    @property
    def delta_w_run(self) -> int:
        """delta(W_run): set bitmask of the running context's write signature."""
        if self.running is None:
            return 0
        return self.running.delta_mask

    @property
    def or_delta_w_pre(self) -> int:
        """OR of delta(W) over every active, non-running context."""
        mask = 0
        for context in self.contexts:
            if context.active and context is not self.running:
                mask |= context.delta_mask
        return mask

    def speculative_owner_of_set(self, set_index: int) -> Optional[VersionContext]:
        """The unique speculative context owning dirty lines in a set.

        Under the Set Restriction at most one active context's delta mask
        covers a set *and* actually has dirty lines there; the delta masks
        are conservative only through aliasing within the same context.
        """
        bit = 1 << set_index
        for context in self.contexts:
            if context.active and context.delta_mask & bit:
                return context
        return None

    def set_has_speculative_dirty(self, set_index: int) -> bool:
        """External-request screening: could a dirty line in this set be
        speculative?  If so, external reads of dirty lines must be nacked."""
        bit = 1 << set_index
        return bool((self.delta_w_run | self.or_delta_w_pre) & bit)

    # ------------------------------------------------------------------
    # Recording accesses (the per-load/per-store hardware path)
    # ------------------------------------------------------------------

    def record_load(self, byte_address: int) -> int:
        """Add a load's address to the running context's R signature.

        Returns the address's flat encode mask so callers that mirror
        the access into further signatures (the TM scheme's per-section
        registers) can reuse it instead of re-encoding.
        """
        running = self.running
        if running is None:
            raise SimulationError("no running speculative context in the BDM")
        mask = self.config.flat_mask(byte_address >> self._byte_shift)
        running.read_signature.add_mask(mask)
        return mask

    def record_store(self, byte_address: int) -> int:
        """Add a store's address to the running context's W signature(s).

        Returns the cache set index of the stored line, which the caller
        has *already* validated with :meth:`store_set_action`.  The
        context's incremental ``delta(W)`` mask is updated here.
        """
        address = byte_address >> self._byte_shift
        return self.record_store_granule(address, self.config.flat_mask(address))

    def record_store_granule(self, address: int, mask: int) -> int:
        """The :meth:`record_store` core, for callers that already
        converted the byte address and hold its flat encode mask."""
        context = self.running
        if context is None:
            raise SimulationError("no running speculative context in the BDM")
        context.write_signature.add_mask(mask)
        if context.shadow_write_signature is not None:
            context.shadow_write_signature.add_mask(mask)
        set_index = (address >> self._granule_line_shift) & self._set_mask
        context.delta_mask |= 1 << set_index
        return set_index

    # ------------------------------------------------------------------
    # Set Restriction
    # ------------------------------------------------------------------

    def store_set_action(self, line_address: int) -> SetRestrictionAction:
        """Decide what must precede a speculative store to a line's set.

        Implements the (delta(W_run), OR(delta(W_pre))) decision table of
        Section 4.5: (1, 0) proceed; (0, 0) write back any non-speculative
        dirty lines first; (0, 1) conflict with a preempted context.
        """
        bit = 1 << (line_address & self._set_mask)
        running = self.running
        if running is not None and running.delta_mask & bit:
            return SetRestrictionAction.PROCEED
        for context in self.contexts:
            if context.active and context is not running and context.delta_mask & bit:
                self.stats.set_restriction_conflicts += 1
                return SetRestrictionAction.CONFLICT
        return SetRestrictionAction.WRITEBACK_NONSPEC

    def note_safe_writeback(self, count: int = 1) -> None:
        """Record non-speculative dirty lines written back for the
        restriction (the *Safe WB* metric of Tables 6 and 7)."""
        self.stats.safe_writebacks += count

    def assert_set_restriction(self, cache: Cache) -> None:
        """Validate the invariant over the whole cache (test hook).

        For every set: either all dirty lines are non-speculative, or they
        are all plausibly owned by the single speculative context whose
        delta mask covers the set.
        """
        for set_index in range(self.geometry.num_sets):
            dirty = cache.dirty_lines_in_set(set_index)
            if not dirty:
                continue
            bit = 1 << set_index
            owners = [
                context
                for context in self.contexts
                if context.active and context.delta_mask & bit
            ]
            if len(owners) > 1:
                raise SetRestrictionError(
                    f"cache set {set_index} is claimed by {len(owners)} "
                    "speculative contexts"
                )

    # ------------------------------------------------------------------
    # Bulk invalidation (Section 4.3)
    # ------------------------------------------------------------------

    def squash_invalidate(
        self,
        cache: Cache,
        context: VersionContext,
        invalidate_read_lines: bool = False,
    ) -> int:
        """Squash-side bulk invalidation: discard ``context``'s dirty lines.

        Uses signature expansion on the context's W; thanks to delta
        exactness and the Set Restriction, every *dirty* line that passes
        the membership test belongs to this context, so invalidating it is
        safe.  With ``invalidate_read_lines`` (the TLS extension of
        Section 6.3) lines matching the R signature are also invalidated,
        clean or dirty, because they may hold incorrect data forwarded
        from a squashed predecessor.
        """
        invalidated = 0
        for _, line in matched_lines(context.write_signature, cache, self.decoder):
            if line.dirty:
                cache.invalidate(line.line_address)
                invalidated += 1
        if invalidate_read_lines:
            for _, line in matched_lines(
                context.read_signature, cache, self.decoder
            ):
                if cache.contains(line.line_address):
                    cache.invalidate(line.line_address)
                    invalidated += 1
        self.stats.squash_invalidations += invalidated
        return invalidated

    def squash_invalidate_contexts(
        self, cache: Cache, contexts: Sequence[VersionContext]
    ) -> int:
        """Squash-side bulk invalidation over several contexts at once.

        The multi-level rollback path (checkpoint
        :meth:`~repro.checkpoint.processor.CheckpointedProcessor.rollback_to`)
        discards a whole run of contexts in one event.  With a vectorised
        codec, decode each context's W once, gather every selected set's
        resident lines into one shared address batch, and membership-test
        all contexts against it in a single
        :meth:`~repro.core.backend.codec.CodecKernels.match_lines_many`
        pass.  Bit-identical to calling :meth:`squash_invalidate` once
        per context in order: candidates are snapshotted up front, and an
        apply-time ``contains`` check reproduces the scalar behaviour
        where an earlier context's invalidations remove lines from later
        contexts' walks.
        """
        contexts = list(contexts)
        codec = None if self.backend is None else self.backend.codec
        if codec is None or len(contexts) <= 1:
            return sum(
                self.squash_invalidate(cache, context) for context in contexts
            )
        columns: dict = {}
        addresses: List[int] = []
        per_context: List[list] = []
        for context in contexts:
            candidates = []
            for set_index in self.decoder.selected_sets(context.write_signature):
                for line in cache.lines_in_set(set_index):
                    address = line.line_address
                    column = columns.get(address)
                    if column is None:
                        column = columns[address] = len(addresses)
                        addresses.append(address)
                    candidates.append((column, line))
            per_context.append(candidates)
        if not addresses:
            return 0
        note_codec("expansion_vectorised")
        flag_rows = codec.match_lines_many(
            [context.write_signature for context in contexts], addresses
        )
        invalidated = 0
        for candidates, flags in zip(per_context, flag_rows):
            for column, line in candidates:
                if (
                    flags[column]
                    and line.dirty
                    and cache.contains(line.line_address)
                ):
                    cache.invalidate(line.line_address)
                    invalidated += 1
        self.stats.squash_invalidations += invalidated
        return invalidated

    def commit_invalidate(
        self,
        cache: Cache,
        committed_write: Signature,
        fetch_committed_line: Optional[LineFetcher] = None,
        exact_written_lines: Optional[Set[int]] = None,
        invalidate_nonspec_dirty: bool = False,
    ) -> Tuple[int, int, int]:
        """Commit-side bulk invalidation: apply an incoming W_C to the cache.

        Clean lines passing the membership test are invalidated (possibly
        falsely, through aliasing — a performance cost only).  Dirty lines
        are left alone *unless* signatures are word-granularity and the
        line's set is covered by a local speculative context's delta(W):
        then both threads updated different words of the line, and the
        committed and local versions are merged via the Updated Word
        Bitmask unit (Section 4.4).

        ``invalidate_nonspec_dirty`` handles a case the paper's Section
        4.3 rule ("no action if b is dirty") does not cover: under
        word-granularity TLS, two tasks may commit different words of the
        same line in turn; after the first commit, its processor holds
        the line dirty *non-speculatively*, and the second commit's W_C
        genuinely contains the line — leaving it untouched retains stale
        data.  With the flag set, such lines are written back and
        invalidated (counted separately so the system can charge the
        writeback).  The TM configuration keeps the paper's exact rule:
        at line granularity the overlapping write would have squashed
        the second writer, so the case cannot arise.

        ``exact_written_lines`` is a simulator-only oracle (the committer's
        true write set) used to count false invalidations for Tables 6/7;
        it does not influence behaviour.

        Returns ``(invalidated, merged, writeback_invalidated)`` counts.
        """
        invalidated = 0
        merged = 0
        writeback_invalidated = 0
        for set_index, line in matched_lines(committed_write, cache, self.decoder):
            if not line.dirty:
                cache.invalidate(line.line_address)
                invalidated += 1
                self.stats.commit_invalidations += 1
                if (
                    exact_written_lines is not None
                    and line.line_address not in exact_written_lines
                ):
                    self.stats.false_commit_invalidations += 1
                continue
            # Dirty line.  If a local speculative context owns this set,
            # the line carries local speculative updates to merge with the
            # committed version (word granularity only).  Otherwise it is
            # non-speculative dirty: untouched under the paper's rule, or
            # written back and invalidated in the word-granularity TLS
            # configuration (see above).
            owner = self.speculative_owner_of_set(set_index)
            if owner is None or self.word_unit is None:
                if invalidate_nonspec_dirty and owner is None:
                    cache.invalidate(line.line_address)
                    writeback_invalidated += 1
                continue
            if fetch_committed_line is None:
                raise SimulationError(
                    "word-granularity commit invalidation hit a speculative "
                    "dirty line but no committed-line fetcher was provided"
                )
            mask = self.word_unit.mask_for_line(
                owner.write_signature, line.line_address
            )
            committed_words = tuple(fetch_committed_line(line.line_address))
            line.words = list(
                merge_line(committed_words, line.snapshot_words(), mask)
            )
            merged += 1
            self.stats.merged_lines += 1
        return invalidated, merged, writeback_invalidated

    # ------------------------------------------------------------------
    # Overflow screening (Section 6.2.2)
    # ------------------------------------------------------------------

    def miss_needs_overflow_check(
        self, context: VersionContext, byte_address: int
    ) -> bool:
        """Whether a cache miss might hit the context's overflow area.

        If the context never overflowed, or the membership test rejects
        the address, the miss can go straight to the network — this filter
        is why Bulk touches its overflow area ~4% as often as Lazy
        (Table 7).
        """
        if not context.overflow:
            return False
        address = self.config.granularity.from_byte(byte_address)
        if address in context.write_signature:
            return True
        self.stats.overflow_checks_filtered += 1
        return False

    def note_speculative_eviction(self, context: VersionContext) -> None:
        """Set the context's Overflow bit (a dirty speculative line left
        the cache for the overflow area)."""
        context.overflow = True

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def assert_disjoint_write_signatures(self) -> None:
        """Check the Section 4.5 guarantee: W_i ∩ W_j = ∅ for any two
        active write signatures in this BDM (test hook)."""
        active = self.active_contexts()
        for i, first in enumerate(active):
            for second in active[i + 1 :]:
                if first.write_signature.intersects(second.write_signature):
                    raise SetRestrictionError(
                        f"write signatures of contexts {first.slot} and "
                        f"{second.slot} intersect"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BulkDisambiguationModule({self.config.name}, "
            f"{len(self.contexts)} contexts, "
            f"{len(self.active_contexts())} active)"
        )
