import numpy as np
import pytest

from duropoly import MarketParams, belief, eval_R, mu_bar_1


# the virtual value v_low - mu / (1 - mu) (v_high - v_low) is the class-0
# line at posterior 0, eval_R(table, 0.0, mu)


def test_virtual_value_at_zero_is_v_low(table08):
    assert eval_R(table08, 0.0, 0.0) == 1.0


def test_virtual_value_zero_at_ratio(table08):
    # the first cutoff is exactly where the virtual value changes sign
    assert eval_R(table08, 0.0, 0.5) == 0.0


def test_virtual_value_direct_substitution(table08):
    assert eval_R(table08, 0.0, 2.0 / 3.0) == pytest.approx(-1.0, abs=1e-12)


def test_virtual_value_pole_rejected(table08):
    with pytest.raises(ValueError):
        eval_R(table08, 0.0, 1.0)


def test_virtual_value_strictly_decreasing(table08):
    grid = np.linspace(0.0, 0.999, 500)
    vals = [eval_R(table08, 0.0, m) for m in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_virtual_value_sign_splits_at_mu_bar_1(p08, table08):
    m1 = mu_bar_1(p08)
    for m in np.linspace(0.0, 0.99, 200):
        v = eval_R(table08, 0.0, float(m))
        if m < m1:
            assert v > 0.0
        elif m > m1:
            assert v < 0.0


@pytest.mark.parametrize(
    "v_low,v_high,expected",
    [(1.0, 2.0, 0.5), (0.0, 1.0, 0.0), (3.0, 4.0, 0.75)],
)
def test_mu_bar_1(v_low, v_high, expected):
    assert mu_bar_1(MarketParams(v_low, v_high, 0.9)) == expected


def test_surplus_identity(p08, table08):
    # revenue at a posted price of v_low equals the virtual surplus at any belief
    for m in np.linspace(0.0, 1.0, 1001)[:-1]:
        m = float(m)
        lhs = m * p08.v_high + (1.0 - m) * eval_R(table08, 0.0, m)
        assert abs(lhs - p08.v_low) < 1e-12


def test_belief_clamps_near_endpoints():
    # nothing is clamped: a value outside [0, 1] by any amount is rejected,
    # alone or inside an array, and values in [0, 1] pass unchanged
    for bad in (-5e-13, 1.0 + 5e-13, np.nan):
        for value in (bad, np.array([0.5, bad]), [0.0, bad, 1.0]):
            with pytest.raises(ValueError):
                belief(value)
    assert belief(0.3) == 0.3
    assert belief(5e-324) == 5e-324 and belief(np.nextafter(1.0, 0.0)) < 1.0
    zero = belief(-0.0)
    assert type(zero) is float and zero == 0.0 and not np.signbit(zero)
    # a market folds v_low = -0.0 too: cutoff 1, v_low / v_high, is never -0.0
    assert not np.signbit(MarketParams(-0.0, 1.0, 0.9).v_low)
    priors = np.array([0.0, 0.25, 1.0])
    checked = belief(priors)
    assert checked is not priors and np.array_equal(checked, priors)


def test_belief_rejects_out_of_range():
    with pytest.raises(ValueError):
        belief(-1e-6)
    with pytest.raises(ValueError):
        belief(1.001)
    with pytest.raises(ValueError):
        belief(float("nan"))


def test_belief_error_names_one_value():
    # an array's error is one line naming its first value outside [0, 1]
    with pytest.raises(ValueError, match=r"^belief -1\.0 lies outside \[0, 1\]$"):
        belief(np.linspace(-1.0, 1.0, 101))


def test_params_validation():
    with pytest.raises(ValueError):
        MarketParams(2.0, 1.0, 0.8)
    with pytest.raises(ValueError):
        MarketParams(1.0, 1.0, 0.8)
    with pytest.raises(ValueError):
        MarketParams(-0.1, 1.0, 0.8)
    with pytest.raises(ValueError):
        MarketParams(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        MarketParams(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        MarketParams(1.0, float("inf"), 0.8)
    with pytest.raises(ValueError):
        MarketParams(float("nan"), 2.0, 0.8)


def test_delta_v(p08):
    assert p08.delta_v == 1.0
