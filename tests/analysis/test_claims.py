"""The paper's shape claims hold at ``repro reproduce``'s defaults.

One default run (TM 10 txns, TLS 120 tasks, 200 samples, seed 42)
serves every test here: the gate itself, the block EXPERIMENTS.md
quotes, and the doctored copies of the run's evidence that show no
claim is vacuous.
"""

import contextlib
import copy
import dataclasses
import io
import pathlib
import re

import pytest

from repro.analysis import claims
from repro.analysis.claims import CLAIMS, check_claims, render_claims
from repro.cli import main

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
DOCUMENTED = re.compile(
    r"<!-- claims:begin -->\n```text\n(.*?)\n```\n<!-- claims:end -->", re.S
)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """``reproduce``'s stdout and the evidence it checked the claims on."""
    evidence = []

    def spy(*args):
        evidence.append(args)
        return check_claims(*args)

    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(stdout):
        patch.setattr(claims, "check_claims", spy)
        code = main([
            "reproduce", "--out", str(tmp_path_factory.mktemp("claims")),
            "--no-cache", "--jobs", "2",
        ])
    assert code == 0
    assert len(evidence) == 1
    return stdout.getvalue(), evidence[0]


def printed_block(stdout):
    """The claims table ``reproduce`` printed: title to blank line."""
    lines = stdout.splitlines()
    start = next(
        index for index, line in enumerate(lines)
        if line.startswith("Paper claims")
    )
    return "\n".join(lines[start:lines.index("", start)])


def test_every_claim_holds_at_the_default_sizing(default_run):
    stdout, evidence = default_run
    results = check_claims(*evidence)
    block = printed_block(stdout)
    assert block == render_claims(results)
    failed = [
        f"{r.claim.figure}: {r.claim.statement}"
        for r in results if not r.holds
    ]
    assert failed == [], block


def test_experiments_md_quotes_the_printed_block(default_run):
    block = printed_block(default_run[0])
    documented = DOCUMENTED.search(EXPERIMENTS.read_text(encoding="utf-8"))
    assert documented is not None, "EXPERIMENTS.md lost its claims markers"
    assert documented.group(1) == block, (
        "EXPERIMENTS.md's claims block is stale; replace it with:\n" + block
    )


# Each doctor breaks one figure's evidence in place.


def swap_tls_eager_and_bulk_cycles(tls, tm, rows):
    for c in tls.values():
        c.cycles["Eager"], c.cycles["Bulk"] = c.cycles["Bulk"], c.cycles["Eager"]


def slow_sjbb2k_lazy_below_eager(tls, tm, rows):
    cycles = tm["sjbb2k"].cycles
    cycles["Lazy"] = cycles["Eager"] + 1


def double_eager_traffic_for_bulk(tls, tm, rows):
    for c in tm.values():
        c.stats["Bulk"].bandwidth.by_category = {
            category: 2 * amount for category, amount
            in c.stats["Eager"].bandwidth.by_category.items()
        }


def commit_as_much_as_lazy(comparisons):
    for c in comparisons.values():
        c.stats["Bulk"].bandwidth.commit_bytes = (
            c.stats["Lazy"].bandwidth.commit_bytes
        )


def swap_tls_read_and_write_sets(tls, tm, rows):
    for c in tls.values():
        s = c.stats["Bulk"]
        s.read_set_words, s.write_set_words = s.write_set_words, s.read_set_words


def swap_tm_read_and_write_sets(tls, tm, rows):
    for c in tm.values():
        s = c.stats["Bulk"]
        s.read_set_granules, s.write_set_granules = (
            s.write_set_granules, s.read_set_granules
        )


def raise_a_best_above_its_worst(tls, tm, rows):
    rows[0] = dataclasses.replace(rows[0], fp_best=rows[0].fp_worst + 0.01)


def leave_a_register_uncompressed(tls, tm, rows):
    rows[-1] = dataclasses.replace(
        rows[-1], avg_compressed_bits=rows[-1].full_size_bits
    )


DOCTORS = {
    "Fig. 10": swap_tls_eager_and_bulk_cycles,
    "Fig. 11": slow_sjbb2k_lazy_below_eager,
    "Fig. 13": double_eager_traffic_for_bulk,
    "Fig. 14": lambda tls, tm, rows: commit_as_much_as_lazy(tm),
    "Sec. 7.4": lambda tls, tm, rows: commit_as_much_as_lazy(tls),
    "Fig. 15": raise_a_best_above_its_worst,
    "Table 6": swap_tls_read_and_write_sets,
    "Table 7": swap_tm_read_and_write_sets,
    "Table 8": leave_a_register_uncompressed,
}


def test_every_figure_of_the_table_has_a_doctor():
    assert set(DOCTORS) == {claim.figure for claim in CLAIMS}


@pytest.mark.parametrize("figure", sorted(DOCTORS))
def test_doctored_evidence_fails_a_claim_of_its_figure(default_run, figure):
    tls, tm, rows = copy.deepcopy(default_run[1])
    rows = list(rows)
    DOCTORS[figure](tls, tm, rows)
    results = check_claims(tls, tm, rows)
    failed = {r.claim.figure for r in results if not r.holds}
    assert failed == {figure}
    marked = [
        line for line in render_claims(results).splitlines()
        if line.endswith("FAILS")
    ]
    assert marked and all(line.strip().startswith(figure) for line in marked)
