import numpy as np
import pytest

from duropoly import MarketParams, belief, mu_bar_1, virtual_value


def test_virtual_value_at_zero_is_v_low(p08):
    assert virtual_value(p08, 0.0) == 1.0


def test_virtual_value_zero_at_ratio(p08):
    # the first cutoff is exactly where the virtual value changes sign
    assert virtual_value(p08, 0.5) == 0.0


def test_virtual_value_direct_substitution(p08):
    assert virtual_value(p08, 2.0 / 3.0) == pytest.approx(-1.0, abs=1e-12)


def test_virtual_value_pole_rejected(p08):
    with pytest.raises(ValueError):
        virtual_value(p08, 1.0)


def test_virtual_value_strictly_decreasing(p08):
    grid = np.linspace(0.0, 0.999, 500)
    vals = [virtual_value(p08, m) for m in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_virtual_value_sign_splits_at_mu_bar_1(p08):
    m1 = mu_bar_1(p08)
    for m in np.linspace(0.0, 0.99, 200):
        v = virtual_value(p08, float(m))
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


def test_surplus_identity(p08):
    # revenue at a posted price of v_low equals the virtual surplus at any belief
    for m in np.linspace(0.0, 1.0, 1001)[:-1]:
        m = float(m)
        lhs = m * p08.v_high + (1.0 - m) * virtual_value(p08, m)
        assert abs(lhs - p08.v_low) < 1e-12


def test_belief_clamps_near_endpoints():
    assert belief(-5e-13) == 0.0
    assert belief(1.0 + 5e-13) == 1.0
    assert belief(0.3) == 0.3


def test_belief_rejects_out_of_range():
    with pytest.raises(ValueError):
        belief(-1e-6)
    with pytest.raises(ValueError):
        belief(1.001)
    with pytest.raises(ValueError):
        belief(float("nan"))


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
