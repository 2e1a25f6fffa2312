import numpy as np
import pytest

from duropoly import (
    MarketParams,
    buyer_rent,
    compute_cutoffs,
    equilibrium_split,
    eval_R,
    seller_revenue,
    virtual_value,
)

from helpers import (
    class_one_revenue,
    commitment_revenue,
    decompose_R,
    oracle_R,
    oracle_vhat,
    rent_correspondence,
)


def test_eval_R_one_shot_branch(table08):
    # below the first cutoff the value is the one-shot virtual surplus = v_low
    assert eval_R(table08, 0.3, 0.3) == pytest.approx(1.0, abs=1e-12)


def test_eval_R_at_first_cutoff(table08):
    assert eval_R(table08, 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_eval_R_one_delay_class(table08):
    assert eval_R(table08, 0.6, 0.6) == pytest.approx(1.04, abs=1e-12)


def test_eval_R_pole(table08):
    with pytest.raises(ValueError):
        eval_R(table08, 0.5, 1.0)


def test_eval_R_at_posterior_one(table08):
    assert eval_R(table08, 1.0, 0.6) == table08.params.v_high


def test_eval_R_matches_direct_recursion(p08, table08):
    rng = np.random.default_rng(7)
    for _ in range(200):
        mp, m0 = rng.random(), rng.random() * 0.99
        got = eval_R(table08, float(mp), float(m0))
        want = oracle_R(p08, table08.cutoffs, float(mp), float(m0))
        assert abs(got - want) < 1e-12 * p08.v_high


def test_eval_R_vectorized_matches_scalar(table08):
    grid = np.linspace(0.0, 1.0, 97)
    vec = eval_R(table08, grid, 0.7)
    for m, v in zip(grid, vec):
        assert v == eval_R(table08, float(m), 0.7)


def test_decompose_extremes(table08):
    d0 = decompose_R(table08, 0.0)
    assert (d0.alpha, d0.gamma) == (0.0, 1.0)
    mp = 1.0 - 1e-9
    n = table08.delay_class(mp)
    dn = decompose_R(table08, mp)
    assert dn.gamma == pytest.approx(table08.params.delta**n * 1e-9, rel=1e-6)


def test_decompose_one_delay_class(table08):
    d = decompose_R(table08, 0.6)
    assert d.alpha == pytest.approx(0.6, abs=1e-15)
    assert d.gamma == pytest.approx(0.32, abs=1e-15)


def test_decompose_by_linear_solve(p08, table08):
    # recover (alpha, gamma) from two evaluations and compare
    rng = np.random.default_rng(11)
    for mp in rng.random(25):
        mp = float(mp)
        a = np.array([[p08.v_high, virtual_value(p08, 0.1)],
                      [p08.v_high, virtual_value(p08, 0.7)]])
        b = np.array([eval_R(table08, mp, 0.1), eval_R(table08, mp, 0.7)])
        alpha, gamma = np.linalg.solve(a, b)
        d = decompose_R(table08, mp)
        assert abs(alpha - d.alpha) < 1e-10
        assert abs(gamma - d.gamma) < 1e-10


def test_alpha_bounded_by_posterior(table08):
    for mp in np.linspace(0.0, 1.0, 1001):
        assert decompose_R(table08, float(mp)).alpha <= mp + 1e-12


def test_gamma_formula(table08):
    for mp in np.linspace(0.0, 1.0, 101):
        mp = float(mp)
        n = table08.delay_class(mp)
        assert decompose_R(table08, mp).gamma == (1.0 - mp) * table08.params.delta**n


def test_seller_revenue(table08, tabledeg):
    assert seller_revenue(tabledeg, 0.3) == 0.3
    assert seller_revenue(table08, 0.3) == pytest.approx(1.0, abs=1e-12)
    assert seller_revenue(table08, 0.6) == pytest.approx(1.04, abs=1e-12)


def test_commitment_bound(table08, table095, tabledeg):
    # limited commitment never beats the commitment optimum, and matches it
    # below the first cutoff, where the seller sells to both types at once
    for table in (table08, table095, tabledeg):
        p = table.params
        for m0 in np.linspace(0.0, 1.0, 1001)[:-1]:
            m0 = float(m0)
            bound = commitment_revenue(p, m0)
            assert seller_revenue(table, m0) <= bound + 1e-12 * p.v_high
            if m0 < table.cutoffs[1]:
                assert seller_revenue(table, m0) == pytest.approx(bound, abs=1e-12 * p.v_high)


def test_commitment_limit_as_delta_to_0():
    # an impatient seller forgoes the future and posts the commitment price
    p = MarketParams(1.0, 2.0, 1e-6)
    revenue = seller_revenue(compute_cutoffs(p), 0.9)
    assert revenue == pytest.approx(commitment_revenue(p, 0.9), abs=1e-5 * p.v_high)


def test_coase_limit_as_delta_to_1():
    # revenue falls to v_low while the delay class at a fixed prior stays bounded
    for delta in (0.9, 0.99, 0.999, 1.0 - 1e-6):
        assert compute_cutoffs(MarketParams(1.0, 2.0, delta)).delay_class(0.9) == 3
    p = MarketParams(1.0, 2.0, 1.0 - 1e-6)
    assert seller_revenue(compute_cutoffs(p), 0.9) == pytest.approx(p.v_low, abs=1e-5 * p.v_high)


def test_class_one_closed_form():
    # prior 0.6 stays in class 1 at every delta, with revenue 1 + 0.2 (1 - delta)
    for delta in (1e-6, 0.1, 0.5, 0.8, 0.9, 0.99, 0.999, 1.0 - 1e-6):
        p = MarketParams(1.0, 2.0, delta)
        table = compute_cutoffs(p)
        assert table.delay_class(0.6) == 1
        want = class_one_revenue(p, 0.6)
        assert abs(want - (1.0 + 0.2 * (1.0 - delta))) <= 1e-15 * p.v_high
        assert abs(seller_revenue(table, 0.6) - want) <= 1e-15 * p.v_high


def test_buyer_rent_steps(table08):
    dv = table08.params.delta_v
    assert buyer_rent(table08, 0.3) == dv
    assert buyer_rent(table08, 0.5) == 0.8 * dv
    assert buyer_rent(table08, 0.6) == 0.8 * dv
    m_d2 = 0.5 * (table08.cutoffs[2] + table08.cutoffs[3])
    assert buyer_rent(table08, m_d2) == 0.8**2 * dv


def test_buyer_rent_monotone(table08):
    grid = np.linspace(0.0, 0.9999, 2001)
    rents = [buyer_rent(table08, float(m)) for m in grid]
    assert all(a >= b for a, b in zip(rents, rents[1:]))


def test_tiny_first_cutoff_keeps_its_class():
    # mu_bar_1 = 1e-13 is a real cutoff, not rounding noise next to belief 0
    table = compute_cutoffs(MarketParams(1e-13, 1.0, 0.5))
    c1 = table.cutoffs[1]
    assert c1 == 1e-13
    assert table.delay_class(c1) == 1
    assert buyer_rent(table, c1) == 0.5 * table.params.delta_v


def test_buyer_rent_degenerate(tabledeg):
    for m0 in (0.0, 0.3, 0.99):
        assert buyer_rent(tabledeg, m0) == 0.0
    assert rent_correspondence(tabledeg, 0.3) == (0.0, 0.0)


def test_rent_correspondence(table08):
    dv = table08.params.delta_v
    assert rent_correspondence(table08, 0.3) == (dv, dv)
    assert rent_correspondence(table08, 0.5) == (0.8 * dv, dv)
    c2 = table08.cutoffs[2]
    assert rent_correspondence(table08, c2) == (0.8**2 * dv, 0.8 * dv)
    assert rent_correspondence(table08, c2 - 1e-13) == (0.8**2 * dv, 0.8 * dv)
    # detection window is 1e-12
    lo, hi = rent_correspondence(table08, c2 + 1e-9)
    assert lo == hi
    # at a tiny ratio the cutoffs sit about 1e-100 apart, so the window is
    # relative to the matched cutoff
    table = compute_cutoffs(MarketParams(1e-100, 1.0, 0.999))
    d, dv = 0.999, table.params.delta_v
    assert rent_correspondence(table, table.cutoffs[3]) == (d**3 * dv, d**2 * dv)
    assert table.delay_class(3.5e-100) == 3
    assert rent_correspondence(table, 3.5e-100) == (d**3 * dv, d**3 * dv)


def test_recursion_consistency(table08):
    # R(m0, m0) decomposes through the equilibrium split's weights
    p = table08.params
    for m0 in np.linspace(0.01, 0.99, 197):
        m0 = float(m0)
        n = table08.delay_class(m0)
        if n == 0:
            continue
        split = equilibrium_split(table08, m0)
        recomposed = split.weight_sale * p.v_high + split.weight_delay * p.delta * eval_R(
            table08, split.posterior_delay, m0
        )
        assert abs(eval_R(table08, m0, m0) - recomposed) < 1e-10 * p.v_high


def test_value_jump_direction_at_cutoffs(table08):
    # fixing the prior, the value of inducing a cutoff posterior jumps down
    # exactly at cutoffs above the prior's own class
    p = table08.params
    eps = 1e-7
    cuts = table08.cutoffs
    priors = [0.25, 0.6, 0.5 * (cuts[2] + cuts[3]), 0.5 * (cuts[3] + cuts[4])]
    for m0 in priors:
        for k in range(1, len(cuts)):
            c = cuts[k]
            if 1.0 - c < 2 * eps or c - cuts[k - 1] < 2 * eps:
                continue
            jump = eval_R(table08, c + eps, m0) - eval_R(table08, c - eps, m0)
            if m0 >= c:
                assert jump >= -1e-9 * p.v_high
            else:
                assert jump < -1e-9 * p.v_high


def test_degenerate_surface_values(tabledeg):
    # with v_low = 0 the value of any posterior is just mu' v_high
    for mp in np.linspace(0.0, 1.0, 101):
        assert eval_R(tabledeg, float(mp), 0.5) == mp * tabledeg.params.v_high
    d = decompose_R(tabledeg, 0.4)
    assert (d.alpha, d.gamma) == (0.4, 0.0)


def test_oracle_vhat_matches(p08):
    for m in np.linspace(0.0, 0.99, 100):
        assert oracle_vhat(p08, float(m)) == virtual_value(p08, float(m))
