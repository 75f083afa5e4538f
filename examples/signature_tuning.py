#!/usr/bin/env python3
"""Exploring the signature design space (Section 7.5 in miniature).

Collects dependence-free disambiguation samples from a real TM workload
and evaluates a spread of Table 8 configurations on them — bare and
under random bit permutations — reproducing Figure 15's findings:

* the false-positive fraction falls as the register grows;
* permutations move accuracy a lot, and a well-permuted small signature
  can beat a larger badly-wired one;
* RLE keeps commit packets small for every configuration.

Run:  python examples/signature_tuning.py
"""

from repro.analysis.accuracy import collect_tm_samples, sweep_signature_configs
from repro.analysis.report import render_table
from repro.core.signature_config import TABLE8_CONFIGS

CONFIG_SUBSET = ["S1", "S3", "S9", "S6", "S14", "S17", "S20", "S23"]


def main() -> None:
    print("collecting dependence-free disambiguation samples "
          "(Lazy runs of sjbb2k, moldyn, jgrt)...")
    samples = collect_tm_samples(
        apps=["sjbb2k", "moldyn", "jgrt"],
        txns_per_thread=8,
        max_samples_per_app=600,
    )
    print(f"{len(samples)} samples\n")

    subset = {name: TABLE8_CONFIGS[name] for name in CONFIG_SUBSET}
    rows = sweep_signature_configs(subset, samples, permutations_per_config=4)
    print(
        render_table(
            ["ID", "bits", "RLE bits", "FP% bare", "FP% best", "FP% worst"],
            [
                [
                    row.name,
                    row.full_size_bits,
                    round(row.avg_compressed_bits),
                    100 * row.fp_nominal,
                    100 * row.fp_best,
                    100 * row.fp_worst,
                ]
                for row in rows
            ],
            title="Signature size vs accuracy (Figure 15 methodology)",
        )
    )
    small = next(r for r in rows if r.name == "S1")
    large = next(r for r in rows if r.name == "S23")
    print(f"\nS1 ({small.full_size_bits}b) aliases on "
          f"{100 * small.fp_nominal:.1f}% of clean disambiguations; "
          f"S23 ({large.full_size_bits}b) on {100 * large.fp_nominal:.1f}%.")
    print("pick the smallest configuration whose accuracy your squash "
          "budget tolerates — and tune the permutation before growing "
          "the register.")


if __name__ == "__main__":
    main()
