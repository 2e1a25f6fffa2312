import csv
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from duropoly import CutoffTable, MarketParams, compute_cutoffs, indifference_gap, structure_checks
from duropoly.cutoffs import PROXIMITY_TO_ONE, RESOLUTION_GUARD

from conftest import MU2_08, MU3_08
from helpers import SOLVE_CASES, oracle_gap, scan_cutoff, solve_into


def test_degenerate_table(tabledeg):
    assert tabledeg.cutoffs == (0.0, 0.0)
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


def test_gap_zero_at_next_cutoff(p08, table08):
    for n in range(1, len(table08.cutoffs) - 1):
        r = indifference_gap(p08, table08, n, table08.cutoffs[n + 1])
        assert abs(r) < 1e-10 * p08.v_high


def test_gap_negative_at_own_cutoff(p08, table08):
    # delaying one extra period at the class boundary loses (1 - delta) x value
    assert indifference_gap(p08, table08, 1, 0.5) == pytest.approx(-0.2, abs=1e-12)


def test_gap_positive_above_root(p08, table08):
    assert indifference_gap(p08, table08, 1, MU2_08 + 0.01) > 0.0


def test_gap_monotone_on_grid(p08, table08):
    for n in (1, 2, 3):
        lo = table08.cutoffs[n]
        grid = np.linspace(lo, 1.0, 1001)[:-1]
        vals = [indifference_gap(p08, table08, n, float(m)) for m in grid]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


def test_gap_input_validation(p08, table08, tabledeg, pdeg):
    with pytest.raises(ValueError):
        indifference_gap(p08, table08, 0, 0.6)
    with pytest.raises(ValueError):
        indifference_gap(p08, table08, len(table08.cutoffs), 0.6)
    with pytest.raises(ValueError):
        indifference_gap(p08, table08, 1, 1.0)
    with pytest.raises(ValueError):
        indifference_gap(pdeg, tabledeg, 1, 0.5)


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
    for n in range(1, len(cuts) - 1):
        assert abs(indifference_gap(p, table, n, cuts[n + 1])) < 1e-10 * v_high


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
    # the chain stops only at belief 1: its last cutoff is within the stop
    # distance of 1, or the next root is.  The next gap is affine, with
    # g(1) = delta^k (1 - delta)(v_high - v_low) in closed form.
    last, k = cuts[-1], len(cuts) - 1
    if not (last >= 1.0 - PROXIMITY_TO_ONE or 1.0 - last < RESOLUTION_GUARD * (1.0 - delta)):
        g0 = float(oracle_gap(p, cuts, k, 0.0))
        g1 = delta**k * (1.0 - delta) * p.delta_v
        assert g0 / (g0 - g1) >= 1.0 - 1e-12
    assert structure_checks(table, grid_n=101).max_cutoff_residual <= 1e-10 * p.v_high
    for m in (0.0, prior, last, (1.0 + last) / 2.0, float(np.nextafter(1.0, 0.0))):
        n = table.delay_class(m)
        assert 0 <= n <= k and cuts[n] <= m


def test_table_rejects_non_increasing_cutoffs(p08, table08):
    cuts = table08.cutoffs
    for bad in ((0.0, 0.5, 0.5, 0.9), (0.0, 0.5, 0.4), (0.1, 0.5, 0.7), (0.0,)):
        with pytest.raises(ValueError):
            CutoffTable(p08, bad)
    # the degenerate table keeps mu_bar_0 = mu_bar_1 = 0
    CutoffTable(p08, (0.0, 0.0))
    CutoffTable(p08, cuts)


def test_delay_class_examples(table08):
    assert table08.delay_class(0.3) == 0
    assert table08.delay_class(0.5) == 1  # tie at a cutoff favors delay
    assert table08.delay_class(0.6) == 1
    assert table08.delay_class(table08.cutoffs[2]) == 2


def test_delay_class_steps_exactly_at_cutoffs(table08):
    for n in range(1, len(table08.cutoffs) - 1):
        c = table08.cutoffs[n]
        assert table08.delay_class(c) == n
        assert table08.delay_class(c - 1e-9) == n - 1


def test_delay_class_monotone(table08):
    grid = np.linspace(0.0, 0.9999, 2001)
    classes = [table08.delay_class(float(m)) for m in grid]
    assert all(a <= b for a, b in zip(classes, classes[1:]))


def test_delay_class_beyond_table(table08):
    # the table reached 1, so the tail belongs to the last class
    assert table08.delay_class(1.0 - 1e-8) == len(table08.cutoffs) - 1


def test_delay_class_degenerate(tabledeg):
    assert tabledeg.delay_class(0.0) == 0
    assert tabledeg.delay_class(0.5) == 1
    assert tabledeg.delay_class(0.999) == 1


def test_alphas_and_gammas(table08):
    # alpha at a cutoff follows the split chain; gamma is (1 - c) delta^k
    cuts, d = table08.cutoffs, table08.params.delta
    assert table08.alphas[0] == 0.0
    assert table08.alphas[1] == 0.5
    expected_a2 = (cuts[2] - 0.5) / 0.5 + d * (1.0 - cuts[2]) / 0.5 * 0.5
    assert table08.alphas[2] == pytest.approx(expected_a2, abs=1e-15)
    for k, c in enumerate(cuts):
        assert table08.gammas[k] == (1.0 - c) * d**k


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
        assert tuple(float(r[1]) for r in rows) == table.cutoffs
        assert json.loads((out / "cutoffs.json").read_text()) == {
            "v_low": v_low, "v_high": v_high, "delta": delta,
            "cutoffs": list(table.cutoffs), "degenerate": v_low == 0.0,
        }


def test_oracle_gap_agrees_with_production(p08, table08):
    # same function, two independent evaluation routes
    cuts = table08.cutoffs
    for n in (1, 2, 3):
        for m in np.linspace(cuts[n], 0.999, 37):
            a = indifference_gap(p08, table08, n, float(m))
            b = float(oracle_gap(p08, cuts, n, float(m)))
            assert abs(a - b) < 1e-10
