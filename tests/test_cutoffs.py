import csv
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from duropoly import CutoffTable, MarketParams, compute_cutoffs, indifference_gap, structure_checks
from duropoly.cutoffs import MAX_CUTOFFS, ODDS_TOP

from conftest import MU2_08, MU3_08
from helpers import (
    RESOLVED_IN_BELIEF,
    SOLVE_CASES,
    check_against_exact_chain,
    exact_chain,
    misplaced_table,
    oracle_gap,
    scan_cutoff,
    solve_into,
)


def test_degenerate_table(tabledeg):
    assert tabledeg.cutoffs.tolist() == [0.0, 0.0]
    assert tabledeg.degenerate


def test_first_cutoffs_closed_form(table08):
    assert table08.cutoffs[0] == 0.0
    assert table08.cutoffs[1] == 0.5
    assert table08.cutoffs[2] == pytest.approx(MU2_08, abs=1e-12)
    assert table08.cutoffs[3] == pytest.approx(MU3_08, abs=1e-12)


def test_low_delta_closed_form():
    # impatience pushes the second cutoff almost to 1
    table = compute_cutoffs(MarketParams(1.0, 2.0, 0.1))
    assert table.cutoffs[2] == pytest.approx(21.0 / 22.0, abs=1e-12)


def test_impatience_shortens_delay(table08):
    t_low = compute_cutoffs(MarketParams(1.0, 2.0, 0.1))
    below_low = sum(1 for c in t_low.cutoffs if c < 0.99)
    below_high = sum(1 for c in table08.cutoffs if c < 0.99)
    assert below_low < below_high


def test_cutoffs_strictly_increasing(table08, table095):
    for table in (table08, table095):
        cuts = table.cutoffs
        assert all(cuts[i] < cuts[i + 1] for i in range(1, len(cuts) - 1))
        assert all(0.0 <= c <= 1.0 for c in cuts)


def check_residuals(p, table):
    """The indifference residual at each cutoff's stored belief, on the
    cutoffs float64 resolves there (see RESOLVED_IN_BELIEF), and every
    cutoff in odds against the 60-digit chain."""
    cuts = table.cutoffs
    for n in range(1, len(cuts) - 1):
        if 1.0 - cuts[n] >= RESOLVED_IN_BELIEF * (1.0 - p.delta):
            assert abs(indifference_gap(table, n, cuts[n + 1])) < 1e-10 * p.v_high
    check_against_exact_chain(table)


def test_gap_zero_at_next_cutoff(p08, table08):
    check_residuals(p08, table08)


def test_gap_negative_at_own_cutoff(table08):
    # delaying one extra period at the class boundary loses (1 - delta) x value
    assert indifference_gap(table08, 1, 0.5) == pytest.approx(-0.2, abs=1e-12)


def test_gap_positive_above_root(table08):
    assert indifference_gap(table08, 1, MU2_08 + 0.01) > 0.0


def test_gap_monotone_on_grid(table08):
    for n in (1, 2, 3):
        lo = table08.cutoffs[n]
        grid = np.linspace(lo, 1.0, 1001)[:-1]
        vals = [indifference_gap(table08, n, float(m)) for m in grid]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


def test_gap_input_validation(table08, tabledeg):
    with pytest.raises(ValueError):
        indifference_gap(table08, 0, 0.6)
    with pytest.raises(ValueError):
        indifference_gap(table08, len(table08.cutoffs), 0.6)
    with pytest.raises(ValueError):
        indifference_gap(table08, 1, 1.1)
    with pytest.raises(ValueError):
        indifference_gap(tabledeg, 1, 0.5)


def test_gap_at_belief_one(p08, table08):
    # the gap is affine in the belief, with no pole: at 1 it is
    # delta^n (1 - delta)(v_high - v_low)
    for n in (1, 2, 3):
        g1 = indifference_gap(table08, n, 1.0)
        assert g1 == pytest.approx(0.8**n * 0.2 * p08.delta_v, rel=1e-15)


def test_closed_form_matches_sign_scan(p08, table08):
    cuts = table08.cutoffs
    for n in range(1, min(5, len(cuts) - 1)):
        root = scan_cutoff(p08, cuts, n, n_points=100_000)
        assert root is not None
        assert abs(root - cuts[n + 1]) < 1e-8


@pytest.mark.parametrize("delta", [0.001, 0.5, 0.8])
@pytest.mark.parametrize("v_low,v_high", [(1e-100, 1.0), (1e-13, 1.0), (0.99, 1.0), (1.0, 1e300)])
def test_cutoffs_at_domain_edges(v_low, v_high, delta):
    # cutoffs as small as 1e-300 and values as large as 1e300 must still resolve
    p = MarketParams(v_low, v_high, delta)
    table = compute_cutoffs(p)
    cuts = table.cutoffs
    assert all(a < b for a, b in zip(cuts[1:], cuts[2:])) and cuts[-1] < 1.0
    check_residuals(p, table)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    log_ratio=st.floats(-300.0, 0.0, exclude_max=True),
    delta=st.floats(1e-6, 1.0 - 1e-5),
    prior=st.floats(0.0, 1.0, exclude_max=True),
)
# chains that once stopped far below 1 when delta^n fell below float64 eps
@example(log_ratio=-228.0, delta=0.25, prior=0.5)
@example(log_ratio=-100.0, delta=0.001, prior=0.5)
def test_every_chain_reaches_one(log_ratio, delta, prior):
    ratio = 10.0**log_ratio
    assume(ratio < 1.0)
    p = MarketParams(ratio, 1.0, delta)
    table = compute_cutoffs(p)
    cuts = table.cutoffs
    assert all(a < b for a, b in zip(cuts[1:], cuts[2:]))
    # the chain stops only where float priors run out of classes: the exact
    # chain's next odds pass 2^53 - 1 or its first float prior ties with the
    # last cutoff
    last, k = cuts[-1], len(cuts) - 1
    check_residuals(p, table)
    assert structure_checks(table).max_cutoff_residual <= 1e-10 * p.v_high
    for m in (0.0, prior, last, (1.0 + last) / 2.0, float(np.nextafter(1.0, 0.0))):
        n = table.delay_class(m)
        assert 0 <= n <= k and cuts[n] <= m
        # the class by belief is the class by odds, the largest n with z_n <= odds
        if cuts[1] < m < 1.0:
            assert n == np.searchsorted(table.odds, m / (1.0 - m), side="right") - 1


@pytest.mark.parametrize("v_low, delta, count", [
    # 59,586 cutoffs when the chain stopped short of belief 1 under a
    # 60,000-cutoff bound
    (1e-300, 0.9999996, 60_006),
    # the longest chain of that old domain, which then held 59,978 cutoffs;
    # 95,083 odds before the cut at the first belief tie
    (3.8e-4, 0.9999999998602016, 75_065),
    # the longest chain before the cut of that domain: 101,424 odds, where a
    # chain stopped at a rounded belief tie held 79,960 cutoffs
    (0.0003548133892335753, 0.9999999998472434, 79_999),
])
def test_long_chains_of_the_domain_build(v_low, delta, count):
    assert count <= MAX_CUTOFFS
    assert len(compute_cutoffs(MarketParams(v_low, 1.0, delta)).cutoffs) == count


def test_chain_past_max_cutoffs_raises():
    # (1e-300, 1, 0.99999985) runs 98,204 odds before its cut and 0.9999999
    # more than MAX_CUTOFFS
    with pytest.raises(ValueError, match=f"needs more than {MAX_CUTOFFS} cutoffs"):
        compute_cutoffs(MarketParams(1e-300, 1.0, 0.9999999))


def test_table_rejects_non_increasing_cutoffs(p08, table08):
    # at (1, 2, 0.8) mu_bar_1 = 0.5, whatever odds[1]; odds 0.9 is belief 0.47
    b = np.zeros(4)
    for bad in ((0.0, 1.0, 1.0, 9.0), (0.0, 1.0, 0.5), (0.0, 0.1, 0.9), (0.1, 1.0, 9.0), (0.0,)):
        with pytest.raises(ValueError):
            CutoffTable(p08, np.asarray(bad), b[:len(bad)])
    with pytest.raises(ValueError):  # one intercept per odds entry
        CutoffTable(p08, table08.odds, table08.intercepts[:-1])
    # the degenerate table keeps mu_bar_0 = mu_bar_1 = 0
    t = CutoffTable(MarketParams(0.0, 1.0, 0.8), np.zeros(2), np.zeros(2))
    assert t.cutoffs.tolist() == [0.0, 0.0]
    assert CutoffTable(p08, table08.odds, table08.intercepts).cutoffs.tolist() == table08.cutoffs.tolist()
    # odds 2^53 - 2 and 2^53 - 1 share their first float prior, 1 - 2^-53
    t = CutoffTable(p08, np.asarray([0.0, 1.0, ODDS_TOP - 1.0, ODDS_TOP]), b)
    assert t.cutoffs[2:].tolist() == [1.0 - 2.0**-53] * 2


def test_table_is_read_only(table08):
    # the cutoffs are one float64 array, not a copy of it in another type
    assert isinstance(table08.cutoffs, np.ndarray) and table08.cutoffs.dtype == np.float64
    for a in (table08.odds, table08.intercepts, table08.cutoffs, table08.discounts,
              table08.rents, table08.prices):
        with pytest.raises(ValueError):
            a[2] = 0.9
    assert table08.delay_class(0.95) == 3
    # the negative controls' table copies the cutoffs it moves
    assert misplaced_table(table08, 2, 0.01).cutoffs[2] == table08.cutoffs[2] + 0.01


def test_delay_class_examples(table08):
    assert table08.delay_class(0.3) == 0
    assert table08.delay_class(0.5) == 1  # tie at a cutoff favors delay
    assert table08.delay_class(0.6) == 1
    assert table08.delay_class(table08.cutoffs[2]) == 2


def test_delay_class_steps_exactly_at_cutoffs(table08):
    for n in range(1, len(table08.cutoffs) - 1):
        c = table08.cutoffs[n]
        assert table08.delay_class(c) == n
        assert table08.delay_class(np.nextafter(c, 0.0)) == n - 1


def test_delay_class_monotone(table08):
    grid = np.linspace(0.0, 0.9999, 2001)
    classes = [table08.delay_class(float(m)) for m in grid]
    assert all(a <= b for a, b in zip(classes, classes[1:]))


def test_delay_class_beyond_table(table08):
    # the next class's odds pass 2^53 - 1, those of the largest float below
    # 1, so no float prior lies beyond the last class; 1 - 1e-8 lies between
    # two cutoffs of the tail
    cuts, last = table08.cutoffs, len(table08.cutoffs) - 1
    assert exact_chain(0.5, 0.8, last + 2).odds[-1] > ODDS_TOP
    assert cuts[-1] < np.nextafter(1.0, 0.0)
    assert table08.delay_class(cuts[-1]) == table08.delay_class(1.0) == last
    n = table08.delay_class(1.0 - 1e-8)
    assert n < last and cuts[n] <= 1.0 - 1e-8 < cuts[n + 1]


def test_delay_class_degenerate(tabledeg):
    assert tabledeg.delay_class(0.0) == 0
    assert tabledeg.delay_class(0.5) == 1
    assert tabledeg.delay_class(0.999) == 1


# (v_low, v_high, delta, cutoffs): the five sets that first showed the odds
# recurrence, then a subnormal ratio the root-finding chain misplaced by
# 4.9e-3 and one it could not build at all
ODDS_SETS = [
    (1.0, 2.0, 0.8, 16),
    (0.5, 1.0, 0.99, 42),
    (1e-3, 1.0, 0.999, 289),
    (1e-3, 1.0, 0.99999, 2608),
    (1e-300, 1.0, 0.999997, 21945),
    (5e-324, 1.0, 0.5, 48),
    (1e-320, 1.0, 0.9999, 3931),
]


@pytest.mark.parametrize("v_low, v_high, delta, count", ODDS_SETS)
def test_odds_and_intercepts(v_low, v_high, delta, count):
    # (z_n, b_n) from (0, r), every one against the 60-digit chain
    table = compute_cutoffs(MarketParams(v_low, v_high, delta))
    ratio = v_low / v_high
    assert len(table.cutoffs) == count
    assert (table.odds[0], table.intercepts[0], table.intercepts[1]) == (0.0, ratio, delta * ratio)
    check_against_exact_chain(table)


def test_csv_json_round_trip(tmp_path):
    # cutoffs.csv and cutoffs.json, as solve writes them, read back to the table
    for i, (v_low, v_high, delta, mu0, _) in enumerate(SOLVE_CASES):
        out = tmp_path / str(i)
        solve_into(out, v_low, v_high, delta, mu0)
        table = compute_cutoffs(MarketParams(v_low, v_high, delta))
        with open(out / "cutoffs.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["n", "mu_bar"]
        assert [int(r[0]) for r in rows] == list(range(len(table.cutoffs)))
        assert [float(r[1]) for r in rows] == table.cutoffs.tolist()
        assert json.loads((out / "cutoffs.json").read_text()) == {
            "v_low": v_low, "v_high": v_high, "delta": delta,
            "cutoffs": table.cutoffs.tolist(), "degenerate": v_low == 0.0,
        }


def test_oracle_gap_agrees_with_production(p08, table08):
    # same function, two independent evaluation routes
    cuts = table08.cutoffs
    for n in (1, 2, 3):
        for m in np.linspace(cuts[n], 0.999, 37):
            a = indifference_gap(table08, n, float(m))
            b = float(oracle_gap(p08, cuts, n, float(m)))
            assert abs(a - b) < 1e-10
