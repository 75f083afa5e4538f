"""Signature size-vs-accuracy study (Section 7.5, Figure 15, Table 8).

The paper's methodology: run the TM applications, sample every bulk
address disambiguation event *known* (by exact information) to have no
dependence, and measure how often each signature configuration reports
one anyway — the false-positive fraction.  Bars use no initial bit
permutation; error segments sweep permutations, best and worst.

Here the exact information is the exact Lazy scheme's: each TM
application runs under a Lazy scheme that records the ``(W_C, R_R,
W_R)`` address sets of every receiver it clears at a commit.
Configurations are then evaluated *offline* against the recorded
samples, which keeps the sweep over 23 configurations × many
permutations cheap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.permutation import BitPermutation
from repro.core.rle import rle_encode_scalar
from repro.core.signature import Signature
from repro.core.signature_config import TABLE8_CONFIGS, SignatureConfig
from repro.errors import ConfigurationError
from repro.sim.rng import SubstreamRng
from repro.tm.lazy import LazyScheme
from repro.tm.params import TM_DEFAULTS, TmParams
from repro.tm.processor import TmProcessor
from repro.tm.system import TmSystem
from repro.workloads.kernels import TM_KERNELS, build_tm_workload

#: One Figure 15 sample: (committed write set, receiver read set, receiver
#: write set) of a disambiguation whose exact dependence set was empty.
DisambiguationSample = Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]

#: The signature catalogues a study can sweep, by name.
_CATALOGUES: Dict[str, Dict[str, SignatureConfig]] = {"table8": TABLE8_CONFIGS}


class _SampleBudgetFull(Exception):
    """Ends a sampling run at the commit that records its last sample."""


class _SamplingLazyScheme(LazyScheme):
    """Exact Lazy that records the first ``budget`` receivers it clears
    as samples, and ends the run at the commit that records the last.

    Lazy clears a receiver exactly when its exact dependence set is
    empty, so each cleared receiver is one Figure 15 sample.  Samples
    are recorded only at commits and none past the budget, so the
    stopped run records exactly what a full run would; the rest of it
    would only simulate.  :meth:`commit_cleanup`, the commit's last
    scheme hook, raises :class:`_SampleBudgetFull` out of
    ``TmSystem.run``: every simulated step keeps the stale-read oracle,
    and only the checks at the end of the run are skipped.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.samples: List[DisambiguationSample] = []

    def receiver_conflict(
        self,
        system: TmSystem,
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> Optional[int]:
        section = super().receiver_conflict(system, committer, receiver)
        if section is None and len(self.samples) < self.budget:
            self.samples.append((
                frozenset(committer.txn.all_write_granules()),
                frozenset(receiver.txn.all_read_granules()),
                frozenset(receiver.txn.all_write_granules()),
            ))
        return section

    def commit_cleanup(self, system: TmSystem, proc: TmProcessor) -> None:
        super().commit_cleanup(system, proc)
        if len(self.samples) >= self.budget:
            raise _SampleBudgetFull


def collect_tm_samples(
    apps: Optional[Sequence[str]] = None,
    txns_per_thread: int = 10,
    seed: int = 7,
    params: TmParams = TM_DEFAULTS,
    max_samples_per_app: int = 1500,
) -> List[DisambiguationSample]:
    """Collect dependence-free disambiguation samples from TM runs.

    Each application runs under exact Lazy, which records the first
    ``max_samples_per_app`` receivers it clears and ends the run at the
    commit that records the last of them; a run that never fills its
    budget runs to the end.  Samples with an empty committed write set
    count against the budget and are then dropped.
    ``txns_per_thread`` and ``max_samples_per_app`` must be at least 1.
    """
    for name, value in (
        ("txns_per_thread", txns_per_thread),
        ("max_samples_per_app", max_samples_per_app),
    ):
        if value < 1:
            raise ConfigurationError(f"{name} must be at least 1, got {value}")
    if apps is None:
        apps = sorted(TM_KERNELS)
    samples: List[DisambiguationSample] = []
    for app in apps:
        traces = build_tm_workload(
            app,
            num_threads=params.num_processors,
            txns_per_thread=txns_per_thread,
            seed=seed,
        )
        scheme = _SamplingLazyScheme(max_samples_per_app)
        try:
            TmSystem(traces, scheme, params).run()
        except _SampleBudgetFull:
            pass
        samples.extend(sample for sample in scheme.samples if sample[0])
    return samples


class _InternedSamples:
    """Samples stored once per distinct address and distinct set.

    ``addresses`` lists each distinct address once, ``sets`` each
    distinct address set as a tuple of indices into ``addresses``, and
    ``triples`` each sample ``(W_C, R_R, W_R)`` as three indices into
    ``sets``; ``committed`` counts the samples carrying each ``W_C``.
    A configuration is then evaluated with one encode per distinct
    address and one register per distinct set.
    """

    def __init__(self, samples: Sequence[DisambiguationSample]) -> None:
        address_ids: Dict[int, int] = {}
        set_ids: Dict[FrozenSet[int], int] = {}
        self.sets: List[Tuple[int, ...]] = []
        self.triples: List[Tuple[int, int, int]] = []
        for sample in samples:
            triple = []
            for members in sample:
                key = frozenset(members)
                index = set_ids.get(key)
                if index is None:
                    index = set_ids[key] = len(self.sets)
                    self.sets.append(tuple(
                        address_ids.setdefault(address, len(address_ids))
                        for address in key
                    ))
                triple.append(index)
            self.triples.append(tuple(triple))
        self.addresses: List[int] = list(address_ids)
        self.committed = Counter(triple[0] for triple in self.triples)

    def registers(self, config: SignatureConfig) -> List[Signature]:
        """Every distinct set's register under ``config``, by set index."""
        masks = config.flat_masks(self.addresses)
        registers = []
        for members in self.sets:
            mask = 0
            for index in members:
                mask |= masks[index]
            register = Signature(config)
            register.add_mask(mask)
            registers.append(register)
        return registers

    def false_positive_fraction(self, registers: List[Signature]) -> float:
        """Fraction of samples where Equation 1 fires on ``registers``."""
        if not self.triples:
            return 0.0
        false_positives = 0
        for committed, reads, writes in self.triples:
            w_c = registers[committed]
            if w_c.intersects(registers[reads]) or w_c.intersects(
                registers[writes]
            ):
                false_positives += 1
        return false_positives / len(self.triples)

    def average_compressed_bits(self, registers: List[Signature]) -> float:
        """Mean RLE size of the samples' committed write registers."""
        if not self.triples:
            return 0.0
        # The scalar encoder is what rle_encode runs for these packed
        # registers, minus its memo: sizing the sweep's registers there
        # would file each one in the shared configuration's RLE memo.
        total = 0
        for committed, count in self.committed.items():
            total += count * 8 * len(rle_encode_scalar(registers[committed]))
        return total / len(self.triples)


def false_positive_fraction(
    config: SignatureConfig,
    samples: Sequence[DisambiguationSample],
) -> float:
    """Fraction of known-dependence-free samples where Equation 1 fires.

    Each sample's address sets are already at the configuration's
    granularity (line addresses, from the TM runs).
    """
    interned = _InternedSamples(samples)
    return interned.false_positive_fraction(interned.registers(config))


def average_compressed_bits(
    config: SignatureConfig,
    samples: Sequence[DisambiguationSample],
) -> float:
    """Average RLE-compressed size of the committed write signatures —
    Table 8's *Compressed Size* column, measured on this workload."""
    interned = _InternedSamples(samples)
    return interned.average_compressed_bits(interned.registers(config))


@dataclass(frozen=True)
class AccuracyRow:
    """One configuration's Figure 15 / Table 8 measurements."""

    name: str
    full_size_bits: int
    avg_compressed_bits: float
    #: False-positive fraction with no initial permutation (the bar).
    fp_nominal: float
    #: Best / worst over the permutation sweep (the error segment).
    fp_best: float
    fp_worst: float


def sweep_signature_configs(
    configs: Dict[str, SignatureConfig],
    samples: Sequence[DisambiguationSample],
    permutations_per_config: int = 4,
    seed: int = 11,
) -> List[AccuracyRow]:
    """Evaluate each configuration bare and under random permutations.

    Matches Figure 15's structure: the nominal (no-permutation) fraction
    per configuration plus the min/max over a permutation sweep.  The
    samples are interned once; each configuration (nominal or permuted)
    then encodes every distinct address once and builds every distinct
    set's register once, and fills no memo of ``configs``.
    """
    interned = _InternedSamples(samples)
    rng = SubstreamRng(seed)
    rows: List[AccuracyRow] = []
    for name in sorted(configs, key=lambda n: (len(n), n)):
        config = configs[name]
        registers = interned.registers(config)
        nominal = interned.false_positive_fraction(registers)
        fractions = [nominal]
        for index in range(permutations_per_config):
            permutation = BitPermutation.shuffled(
                config.granularity.address_bits,
                rng.stream("figure15", name, index),
            )
            permuted = config.with_permutation(permutation)
            fractions.append(
                interned.false_positive_fraction(interned.registers(permuted))
            )
        rows.append(
            AccuracyRow(
                name=name,
                full_size_bits=config.size_bits,
                avg_compressed_bits=interned.average_compressed_bits(registers),
                fp_nominal=nominal,
                fp_best=min(fractions),
                fp_worst=max(fractions),
            )
        )
    return rows


@dataclass(frozen=True)
class AccuracyStudy:
    """Figure 15 / Table 8: how many samples were scored, and one row
    per configuration in sweep order."""

    samples: int
    rows: Tuple[AccuracyRow, ...]


def run_accuracy_study(
    app: str = "table8",
    seed: int = 7,
    txns_per_thread: int = 10,
    max_samples_per_app: int = 1500,
    permutations_per_config: int = 4,
) -> AccuracyStudy:
    """The whole Section 7.5 study: collect the samples of every TM
    application, then sweep the catalogue named ``app`` over them.

    ``seed``, ``txns_per_thread`` and ``max_samples_per_app`` go to
    :func:`collect_tm_samples`; the permutation sweep keeps its own
    default seed.  An unknown catalogue raises ``ConfigurationError``.
    """
    if app not in _CATALOGUES:
        raise ConfigurationError(
            f"unknown signature catalogue {app!r}; "
            f"choose from {', '.join(sorted(_CATALOGUES))}"
        )
    samples = collect_tm_samples(
        txns_per_thread=txns_per_thread,
        seed=seed,
        max_samples_per_app=max_samples_per_app,
    )
    rows = sweep_signature_configs(
        _CATALOGUES[app], samples,
        permutations_per_config=permutations_per_config,
    )
    return AccuracyStudy(len(samples), tuple(rows))
