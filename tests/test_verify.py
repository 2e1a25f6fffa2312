import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duropoly import (
    CutoffTable,
    MarketParams,
    Split,
    compute_cutoffs,
    concave_envelope,
    deviation_scan,
    equilibrium_split,
    eval_R,
    structure_checks,
)
from duropoly import verify

from helpers import (
    RESOLVED_IN_BELIEF,
    best_three_point,
    best_two_point,
    brute_cav,
    misplaced_table,
    oracle_vhat,
)


def test_envelope_affine_is_identity():
    pts = [(x, 0.3 + 1.7 * x) for x in np.linspace(0.0, 1.0, 101)]
    env = concave_envelope(pts)
    assert all(q.envelope == q.raw for q in env)


def test_envelope_v_shape():
    env = concave_envelope([(0.0, 1.0), (0.5, 0.0), (1.0, 1.0)])
    assert [q.envelope for q in env] == [1.0, 1.0, 1.0]


def test_envelope_majorizes_and_concave():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 401)
    y = np.sin(9 * x) + 0.25 * rng.standard_normal(len(x))
    env = concave_envelope(zip(x, y))
    e = np.asarray([q.envelope for q in env])
    assert np.all(e >= y - 1e-12)
    mid = 0.5 * (e[:-2] + e[2:])
    assert np.all(mid <= e[1:-1] + 1e-10)


# two abscissae one ulp apart, as where the prior 0.696 meets the uniform grid
ULP_X = np.array([0.0, 0.3, 0.696, np.nextafter(0.696, 1.0), 0.8, 1.0])
ULP_Y = np.array([-1.0, 0.5, 1.0, 1.0 + 4.4e-16, 1.2, 2.0])
# every point within rounding of its neighbours' chord, yet 0.1 below the hull
DIP_X = np.array([0.0, 0.5, np.nextafter(0.5, 1.0), 1.0])
DIP_Y = np.array([0.0, 0.4, 0.4, 1.0])


def test_envelope_idempotent_exactly():
    rng = np.random.default_rng(5)
    x = np.unique(rng.random(997))
    y = np.cos(11 * x) + 0.4 * rng.standard_normal(len(x))
    for x, y in ((x, y), (ULP_X, ULP_Y)):
        once = [q.envelope for q in concave_envelope(zip(x, y))]
        twice = [q.envelope for q in concave_envelope(zip(x, once))]
        assert once == twice


def test_envelope_matches_brute_force():
    rng = np.random.default_rng(9)
    x = np.linspace(0.0, 1.0, 101)
    y = rng.standard_normal(101).cumsum() / 10.0
    for x, y in ((x, y), (ULP_X, ULP_Y), (DIP_X, DIP_Y)):
        env = np.asarray([q.envelope for q in concave_envelope(zip(x, y))])
        assert np.max(np.abs(env - brute_cav(x, y))) < 1e-12


def test_envelope_input_validation():
    with pytest.raises(ValueError):
        concave_envelope([(0.0, 1.0)])
    with pytest.raises(ValueError):
        concave_envelope([(0.0, 1.0), (0.0, 2.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        concave_envelope([(0.5, 1.0), (0.2, 2.0)])


def test_scan_degenerate_full_surplus(tabledeg):
    rep = deviation_scan(tabledeg, 0.3)
    assert rep.best_deviation_value == pytest.approx(0.3, abs=1e-12)
    assert rep.equilibrium_value == 0.3
    assert rep.passed


def test_scan_no_delay_prior(table08):
    rep = deviation_scan(table08, 0.3)
    assert rep.worst_gap <= rep.tolerance
    assert rep.equilibrium_value == pytest.approx(1.0, abs=1e-12)


def test_scan_one_delay_prior(table08):
    rep = deviation_scan(table08, 0.6)
    assert rep.worst_gap <= rep.tolerance
    assert rep.equilibrium_value == pytest.approx(1.04, abs=1e-12)
    assert (rep.witness.posterior_delay, rep.witness.posterior_sale) == (0.0, 1.0)
    assert (rep.witness.q_delay, rep.witness.q_sale) == (0.0, 1.0)
    assert rep.best_deviation_value == pytest.approx(1.04, abs=1e-12)


def test_scan_witness_matches_split(table08, tabledeg):
    # class 0 (0.02, 0.2, 0.45) sells at the prior; the rest delay
    cases = [(table08, m0) for m0 in (0.02, 0.2, 0.45, 0.55, 0.65, 0.85, 0.95)]
    # with v_low = 0 belief 0 never trades
    cases += [(tabledeg, m0) for m0 in (0.0, 1e-9, 0.2, 0.55, 0.95)]
    for t, m0 in cases:
        rep = deviation_scan(t, m0)
        assert rep.passed
        assert rep.witness == equilibrium_split(t, m0), (t.params, m0)


def test_scan_rejects_bad_inputs(table08):
    with pytest.raises(ValueError):
        deviation_scan(table08, 1.0)


def _w(table, grid, m0):
    p = table.params
    sale = grid * p.v_high + (1.0 - grid) * oracle_vhat(p, m0)
    return np.maximum(sale, p.delta * eval_R(table, grid, m0))


def test_two_point_support_suffices(p08, table08):
    for m0 in (0.3, 0.6, 0.85):
        grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 51), table08.cutoffs, [m0]]))
        w = _w(table08, grid, m0)
        three = best_three_point(grid, w, m0)
        two = deviation_scan(table08, m0).best_deviation_value
        # reuse the same coarse grid for the two-point side
        best2 = best_two_point(grid, w, m0)
        assert three <= best2 + 1e-10 * p08.v_high
        assert two <= best2 + 1e-10 * p08.v_high


def test_scan_matches_two_point_oracle(table08, table095, tabledeg):
    # the oracle's values lose the accuracy the comparison needs at priors
    # within about RESOLVED_IN_BELIEF (1 - delta) of 1, where the virtual
    # value's pole swamps 1e-12
    cases = []
    for t in (table08, table095, tabledeg):
        top = 1.0 - RESOLVED_IN_BELIEF * (1.0 - t.params.delta)
        inner = np.array([c for c in t.cutoffs if 0.0 < c < top])
        ulps = [*np.nextafter(inner, 0.0), *np.nextafter(inner, 1.0)]
        cases += [(t, float(m0), 101) for m0 in [*np.linspace(0.01, 0.99, 101), *inner, *ulps]]
    # 2,152 cutoffs
    long_chain = compute_cutoffs(MarketParams(1e-3, 1.0, 0.99999))
    cases += [(long_chain, m0, 101) for m0 in (1e-4, 0.01, 0.3, 0.7, 0.99)]
    # the prior sits one ulp below a uniform grid point
    cases.append((table08, float(np.linspace(0.01, 0.99, 101)[70]), 1001))
    for t, m0, grid_n in cases:
        rep = deviation_scan(t, m0)
        grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid_n), t.cutoffs, [m0]]))
        best = best_two_point(grid, _w(t, grid, m0), m0)
        assert abs(rep.best_deviation_value - best) <= 1e-12 * t.params.v_high, (t.params, m0)
        assert rep.passed == (best - rep.equilibrium_value <= rep.tolerance)


def test_breakpoint_values_are_suprema(table08):
    # net of the ray to belief 1, per unit of low-type mass, selling is worth
    # s at every posterior and delaying on class k falls in the posterior's
    # odds, so w's supremum on the class is max(s, d_k), taken at cutoff k;
    # the class's left limit at cutoff k + 1 is no more.  R jumps down at
    # cutoffs above the prior, so that left limit can exceed w at the cutoff
    # itself, seen one ulp below it (at prior 0.97, cutoff 4)
    t, p = table08, table08.params
    x, z, b, rho = t.cutoffs, t.odds, t.intercepts, t.rents
    r, d = p.v_low / p.v_high, p.delta
    jumped = False
    for m0 in (0.3, 0.6, 0.85, 0.97):
        z0 = m0 / (1.0 - m0)
        option = np.maximum(r - (1.0 - r) * z0, d * (b - rho * z0) - (1.0 - d) * z)
        at, below = _w(t, x, m0), _w(t, np.nextafter(x, 0.0), m0)
        assert np.max(np.abs(at - p.v_high * (x + (1.0 - x) * option))) <= 1e-12 * p.v_high
        sup_below = p.v_high * (x[1:] + (1.0 - x[1:]) * option[:-1])
        assert np.all(below[1:] <= sup_below + 1e-12 * p.v_high)
        jumped |= bool(np.any(below > at + 1e-3))
    assert jumped


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    log_ratio=st.floats(-6.0, 0.0, exclude_max=True),
    delta=st.floats(1e-6, 1.0 - 1e-5),
    # the range verify scans; toward 1 the virtual value's pole swamps 1e-12
    prior=st.floats(0.0, 0.99),
)
def test_exact_scan_bounds_every_grid(log_ratio, delta, prior):
    # the scan's hull is over the continuum of posteriors, so no grid beats
    # it; on the breakpoints themselves (every cutoff and 1) the two agree
    ratio = 10.0**log_ratio
    assume(ratio < 1.0)
    t = compute_cutoffs(MarketParams(ratio, 1.0, delta))
    best = deviation_scan(t, prior).best_deviation_value
    breakpoints = np.unique(np.append(t.cutoffs, 1.0))
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101), breakpoints]))
    assert best >= best_two_point(grid, _w(t, grid, prior), prior) - 1e-12
    assert abs(best - best_two_point(breakpoints, _w(t, breakpoints, prior), prior)) <= 1e-12


def test_structure_checks_pass(table08, table095, tabledeg):
    for t in (table08, table095, tabledeg):
        report = structure_checks(t)
        assert report.cutoff_residuals_ok, report


def test_array_split_equals_scalar_split(table08, table095, tabledeg):
    for t in (table08, table095, tabledeg):
        cuts = np.array(t.cutoffs)
        priors = np.concatenate([np.linspace(0.0, 1.0, 1001), cuts,
                                 np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)])
        priors = priors[(priors >= 0.0) & (priors < 1.0)]
        split = equilibrium_split(t, priors)
        for i, m0 in enumerate(priors.tolist()):
            one = equilibrium_split(t, m0)
            assert all(type(v) is float for v in one)
            assert one == Split(*(float(f[i]) for f in split)), (t.params, m0)


def test_degenerate_delay_posterior_is_zero(tabledeg):
    for m0 in np.linspace(0.01, 0.99, 25):
        assert equilibrium_split(tabledeg, float(m0)).posterior_delay == 0.0


def test_negative_control_residuals_fail(table08):
    bad_table = misplaced_table(table08, 2, 0.01)
    report = structure_checks(bad_table)
    assert not report.cutoff_residuals_ok
    assert report.max_cutoff_residual > 1e-4


def _witness_value(table, s, m0):
    """The witness split's value under w, after checking its Bayes
    plausibility."""
    assert s.weight_delay * s.posterior_delay + s.weight_sale * s.posterior_sale == pytest.approx(m0)
    posteriors = np.array([s.posterior_delay, s.posterior_sale])
    return np.dot([s.weight_delay, s.weight_sale], _w(table, posteriors, m0))


def test_negative_control_deviation_fails(table08):
    bad_table = misplaced_table(table08, 2, 0.01)
    tol = 1e-12 * table08.params.v_high
    m0 = table08.cutoffs[2] + 0.005  # true class 2, mislabeled class 1
    rep = deviation_scan(bad_table, m0)
    assert not rep.passed
    assert rep.worst_gap > 1e-4
    # the witness is itself a profitable deviation
    value = _witness_value(bad_table, rep.witness, m0)
    assert value > rep.equilibrium_value + 1e-4
    # the report's own witness_gain is that gain, and the bound is exact
    assert rep.witness_gain == pytest.approx(value - rep.equilibrium_value, abs=tol)
    assert rep.worst_gap == pytest.approx(rep.witness_gain, abs=tol)

    # so is every failing prior's
    priors = np.linspace(0.0, 0.999, 1000)
    reps = deviation_scan(bad_table, priors)
    failing = np.flatnonzero(~reps.passed)
    assert len(failing) > 10
    for i in failing.tolist():
        s = Split(*(float(f[i]) for f in reps.witness))
        value = _witness_value(bad_table, s, priors[i])
        assert reps.witness_gain[i] == pytest.approx(value - reps.equilibrium_value[i], abs=tol)
        assert reps.worst_gap[i] == pytest.approx(reps.witness_gain[i], abs=tol), priors[i]


def test_witness_gain_near_one_is_exact():
    # on the table cut where root finding once stopped, at the first cutoff
    # within RESOLVED_IN_BELIEF (1 - delta) of 1, a prior above its last
    # cutoff fails: the witness, a split that delays to the last cutoff,
    # gains 3.3e-3 v_high, and worst_gap is that gain
    full = compute_cutoffs(MarketParams(0.1, 1.0, 0.5))
    placed = sum(1 for c in full.cutoffs if 1.0 - c >= RESOLVED_IN_BELIEF * 0.5) + 1
    t = CutoffTable(full.params, full.odds[:placed], full.intercepts[:placed])
    m0 = 1.0 - 1e-9
    assert deviation_scan(full, m0).passed
    rep = deviation_scan(t, m0)
    s = rep.witness
    assert not rep.passed
    assert s.posterior_delay == t.cutoffs[-1] and s.posterior_sale == 1.0
    value = _witness_value(t, s, m0)
    assert rep.witness_gain == pytest.approx(value - rep.equilibrium_value, abs=1e-12)
    assert rep.witness_gain == pytest.approx(3.295e-3, rel=1e-3)
    assert rep.worst_gap == pytest.approx(rep.witness_gain, abs=1e-12)


def _fields(obj):
    return {k: np.asarray(v).tolist() for k, v in obj._asdict().items() if k != "witness"}


def test_scan_blocks_do_not_change_results(monkeypatch, table08, table095):
    priors = np.concatenate([np.linspace(0.0, 0.999, 301), table095.cutoffs[1:]])
    for t in (table095, misplaced_table(table08, 2, 0.01)):
        whole = deviation_scan(t, priors)
        monkeypatch.setattr(verify, "SCAN_BLOCK_SIZE", 1)  # one row per block
        blocked = deviation_scan(t, priors)
        monkeypatch.undo()
        assert _fields(blocked) == _fields(whole)
        assert _fields(blocked.witness) == _fields(whole.witness)
    assert not whole.passed.all()  # the perturbed table's failing witnesses too
