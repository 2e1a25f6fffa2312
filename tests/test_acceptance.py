"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""
import csv
import json

import numpy as np
import pytest

from duropoly import (
    MarketParams,
    build_mechanism,
    check_binding_constraints,
    compute_cutoffs,
    concave_envelope,
    deviation_scan,
    eval_R,
    indifference_gap,
    monte_carlo,
    seller_revenue,
    structure_checks,
)
from duropoly.cli import main as cli_main

from helpers import (
    RESOLVED_IN_BELIEF,
    check_against_exact_chain,
    decompose_R,
    misplaced_table,
    oracle_vhat,
    scan_cutoff,
)


def report(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_cutoff_correctness():
    ok = True
    for delta in (0.8, 0.95):
        p = MarketParams(1.0, 2.0, delta)
        table = compute_cutoffs(p)
        cuts = table.cutoffs
        ok &= all(cuts[i] < cuts[i + 1] for i in range(1, len(cuts) - 1))
        for n in range(1, len(cuts) - 1):
            # the sign scan and the residual at the stored belief, on the
            # cutoffs float64 resolves there (see RESOLVED_IN_BELIEF)
            if 1.0 - cuts[n] < RESOLVED_IN_BELIEF * (1.0 - delta):
                break
            root = scan_cutoff(p, cuts, n, n_points=1_000_000)
            ok &= root is not None and abs(root - cuts[n + 1]) < 1e-8
            ok &= abs(indifference_gap(table, n, cuts[n + 1])) < 1e-10 * p.v_high
        check_against_exact_chain(table)  # every cutoff, in odds, against 60 digits
    report(1, "cutoffs match the 1e6-point sign scan and the 60-digit chain, "
              "increase, and satisfy their indifference", ok)


def test_criterion_2_deviation_scans():
    ok = True
    for v_low, v_high, delta in ((1.0, 2.0, 0.8), (1.0, 2.0, 0.95), (0.0, 1.0, 0.9)):
        p = MarketParams(v_low, v_high, delta)
        table = compute_cutoffs(p)
        for m0 in np.linspace(0.01, 0.99, 101):
            rep = deviation_scan(table, float(m0))
            ok &= rep.worst_gap <= 1e-8 * p.v_high
    # negative control: a table with the second cutoff shifted must fail
    p = MarketParams(1.0, 2.0, 0.8)
    good = compute_cutoffs(p)
    bad = misplaced_table(good, 2, 0.01)
    bad_rep = deviation_scan(bad, good.cutoffs[2] + 0.005)
    ok &= not bad_rep.passed
    ok &= not structure_checks(bad).cutoff_residuals_ok
    report(2, "no profitable one-shot deviation at 101 priors x 3 parameter "
              "sets; the perturbed table fails", ok)


def test_criterion_3_posted_price_identity():
    ok = True
    for delta in (0.8, 0.95, 0.999):
        p = MarketParams(1.0, 2.0, delta)
        table = compute_cutoffs(p)
        prices = table.prices
        ok &= prices[0] == p.v_low
        ok &= bool(np.all(prices[1:] > prices[:-1]))
        for n in range(1, len(prices)):
            resid = p.v_high - prices[n] - p.delta**n * p.delta_v
            ok &= abs(resid) <= 2.3e-16 * p.v_high
        # the transfers of mechanisms built at real priors use the same map
        for n in range(1, len(table.cutoffs) - 1):
            mech = build_mechanism(table, table.cutoffs[n])
            ok &= mech.n == n and mech.transfer[1.0] == prices[n]
    report(3, "v_high - t(1) - delta^n dv = 0 in every class and the price "
              "staircase rises from v_low", ok)


def test_criterion_4_binding_constraints():
    p = MarketParams(1.0, 2.0, 0.8)
    table = compute_cutoffs(p)
    worst = 0.0
    for m0 in np.linspace(0.0, 1.0, 1002)[:-1]:
        res = check_binding_constraints(build_mechanism(table, float(m0)), table)
        worst = max(worst, abs(res.participation_low), abs(res.truthtelling_high))
    ok = worst < 1e-12 * p.v_high
    report(4, f"participation and truth-telling residuals below 1e-12 v_high "
              f"at 1001 priors (worst {worst:.2e})", ok)


def test_criterion_5_full_surplus(tmp_path):
    p = MarketParams(0.0, 1.0, 0.9)
    table = compute_cutoffs(p)
    ok = all(
        seller_revenue(table, float(m0)) == float(m0) * p.v_high
        for m0 in np.linspace(0.0, 0.99, 101)
    )
    code = cli_main(["sweep", "--v-low", "0", "--v-high", "1", "--delta", "0.9",
                     "--mu0", "0.5", "--grid", "101", "--paths", "10",
                     "--seed", "0", "--out", str(tmp_path)])
    ok &= code == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    grid = np.linspace(0.0, 1.0, 101)[:-1]
    ok &= all(float(r["analytic_revenue"]) == m0 for r, m0 in zip(rows, grid))
    report(5, "v_low = 0 revenue equals mu0 v_high exactly, in memory and in "
              "the sweep CSV", ok)


def test_criterion_6_path_invariant_rents():
    p = MarketParams(1.0, 2.0, 0.8)
    table = compute_cutoffs(p)
    m0 = 0.85
    assert table.delay_class(m0) == 2
    want = p.delta**2 * p.delta_v

    high = monte_carlo(table, m0, "fixed_high", 100_000, seed=123)
    worst = float(np.max(np.abs(high.paths.payoff - want)))
    ok = worst < 1e-12

    low = monte_carlo(table, m0, "fixed_low", 5_000, seed=9)
    ok &= low.mean_rent_low == 0.0 and low.se_revenue < 1e-15

    pooled = monte_carlo(table, m0, "prior", 100_000, seed=11)
    ok &= abs(pooled.mean_revenue - eval_R(table, m0, m0)) <= 3.0 * pooled.se_revenue
    ok &= pooled == monte_carlo(table, m0, "prior", 100_000, seed=11)
    report(6, f"1e5 high-type paths all earn delta^2 dv (worst dev {worst:.1e}), "
              "low types earn 0, Monte Carlo mean matches the analytic value "
              "reproducibly", ok)


def test_criterion_7_value_structure():
    p = MarketParams(1.0, 2.0, 0.8)
    table = compute_cutoffs(p)
    cuts = table.cutoffs
    rng = np.random.default_rng(21)

    ok = True
    for _ in range(100):
        mp, m0 = float(rng.random()), float(rng.random() * 0.99)
        d = decompose_R(table, mp)
        ok &= abs(eval_R(table, mp, m0) - (d.alpha * p.v_high + d.gamma * oracle_vhat(p, m0))) < 1e-12
        ok &= d.alpha <= mp + 1e-12

    eps = 1e-7
    for m0 in (0.25, 0.6, 0.5 * (cuts[2] + cuts[3]), 0.5 * (cuts[3] + cuts[4])):
        for k in range(1, len(cuts)):
            c = cuts[k]
            if 1.0 - c < 2 * eps or c - cuts[k - 1] < 2 * eps:
                continue
            jump = eval_R(table, c + eps, m0) - eval_R(table, c - eps, m0)
            ok &= (jump >= -1e-9 * p.v_high) == (m0 >= c)

    for m0 in np.linspace(0.0, 1.0, 1001)[:-1]:
        m0 = float(m0)
        ok &= seller_revenue(table, m0) <= max(p.v_low, m0 * p.v_high) + 1e-12
    report(7, "linearity, alpha <= mu', jump directions at cutoffs, and the "
              "commitment bound all hold", ok)


def test_criterion_8_envelope_figures():
    p = MarketParams(1.0, 2.0, 0.8)
    table = compute_cutoffs(p)
    ok = True
    for m0, kink in ((0.6, 0.0), (0.85, table.cutoffs[1])):
        grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 1001), table.cutoffs, [m0]]))
        sale = grid * p.v_high + (1.0 - grid) * oracle_vhat(p, m0)
        w = np.maximum(sale, p.delta * eval_R(table, grid, m0))
        env = concave_envelope(zip(grid, w))
        values = np.asarray([q.envelope for q in env])
        raws = np.asarray([q.raw for q in env])
        ok &= np.all(values >= raws - 1e-12)
        twice = np.asarray([q.envelope for q in concave_envelope(zip(grid, values))])
        ok &= np.array_equal(values, twice)
        # affine from the kink (the class's delay posterior) to posterior 1
        seg = (grid >= kink - 1e-12)
        x, v = grid[seg], values[seg]
        chord = v[0] + (x - x[0]) * (v[-1] - v[0]) / (x[-1] - x[0])
        ok &= np.max(np.abs(v - chord)) < 1e-10 * p.v_high
        # the envelope touches the raw curve at the split's support
        i_kink = int(np.searchsorted(grid, kink))
        ok &= abs(values[i_kink] - raws[i_kink]) < 1e-10
        ok &= abs(values[-1] - raws[-1]) < 1e-10
    report(8, "envelope majorizes, is idempotent, and is affine from the "
              "delay kink to posterior 1", ok)
