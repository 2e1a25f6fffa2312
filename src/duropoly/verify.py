"""Independent equilibrium verification.

At each prior mu0, every Bayes-plausible distribution over posteriors is
valued at w, the better of selling now and delaying.  The best value is the
concave hull of w at the prior, the least line l >= w read at mu0, and the
equilibrium names its own line: the chord of w through its split's
posteriors, mu_bar_{n-1} and 1, in delay class n >= 1; in class 0 the sale
line x v_high + (1 - x) vhat(mu0), which is the chord through 0 and 1; with
v_low = 0 the chord through 0 and 1.  So the gain of the best deviation is at
most l(mu0) - R(mu0, mu0) + max (w - l)^+.  On each class the sale value and
delta * R(., mu0) are affine in the posterior, so w is convex there and the
maximum is taken at the breakpoints, every cutoff and 1, where w is the
larger of its own class's value and the left limit of the class below (R
jumps at every cutoff but the prior).  At a prior on a cutoff the seller is
indifferent between that class and the one below, and either chord alone
can overshoot by the cutoff's residual over 1 - mu0; the check takes the
smaller bound of the two.  A pass proves the equilibrium; on a failure the
bound can exceed the real gain by orders of magnitude, so the report also
gives the gain of its witness split, which some deviation attains.  R is
read off the class lines (see value.py), and the scan runs in units of
v_high, so it stays finite up to the float64 maximum.

structure_checks calls equilibrium_split itself once, on its whole prior
grid, and checks the split's shape as array expressions over it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import belief, mu_bar_1
from .cutoffs import CutoffTable
from .mechanism import Split, equilibrium_split
from .value import _class_value, _prior_odds

RESIDUAL_TOL_PER_VHIGH = 1e-10
# Cells of the (priors x breakpoints) array deviation_scan holds at once, in
# whole rows; rows are independent, so results do not depend on it.
SCAN_BLOCK_SIZE = 1 << 14


@dataclass(frozen=True)
class EnvelopePoint:
    mu: float
    raw: float
    envelope: float


@dataclass(frozen=True)
class DeviationReport:
    prior: float
    best_deviation_value: float
    equilibrium_value: float
    worst_gap: float
    witness_gain: float  # the witness split's value under w minus equilibrium_value
    witness: Split
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_gap <= self.tolerance


@dataclass(frozen=True)
class StructureReport:
    delay_posteriors_on_cutoffs: bool
    delay_monotone: bool
    split_shape_ok: bool
    cutoff_residuals_ok: bool
    max_cutoff_residual: float

    @property
    def all_ok(self) -> bool:
        return (
            self.delay_posteriors_on_cutoffs
            and self.delay_monotone
            and self.split_shape_ok
            and self.cutoff_residuals_ok
        )


def _upper_hull(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of the upper concave hull's vertices (Andrew's monotone chain).

    x must be strictly increasing.  A point on or below the chord of its
    hull neighbours is dropped, so the vertices are the hull's extreme points.
    """
    x, y = np.asarray(x).tolist(), np.asarray(y).tolist()  # Python floats index faster
    hull = [0]
    for i in range(1, len(x)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (x[b] - x[a]) * (y[i] - y[b]) >= (y[b] - y[a]) * (x[i] - x[b]):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def concave_envelope(points) -> list[EnvelopePoint]:
    """Least concave majorant of (belief, value) points, restricted to the grid.

    Each point between consecutive hull vertices gets the larger of its own
    value and the chord's, so the result never drops below the input.  When
    no point lies more than 64 eps max|y| below that majorant, the input is
    concave to rounding and comes back unchanged, so re-applying the
    envelope to its own output reproduces it bit for bit.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    x = np.asarray([q[0] for q in pts], dtype=float)
    y = np.asarray([q[1] for q in pts], dtype=float)
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("beliefs must be strictly increasing")

    env = y.copy()
    hull = _upper_hull(x, y)
    for left, right in zip(hull[:-1], hull[1:]):
        span = slice(left + 1, right)
        lam = (x[span] - x[left]) / (x[right] - x[left])
        env[span] = np.maximum(y[span], y[left] + lam * (y[right] - y[left]))
    slack = 64.0 * np.finfo(float).eps * max(1e-300, float(np.max(np.abs(y))))
    if np.max(env - y) <= slack:
        env = y
    return [EnvelopePoint(float(xi), float(yi), float(ei)) for xi, yi, ei in zip(x, y, env)]


def _breakpoints(table: CutoffTable):
    """Breakpoints of w (every cutoff and 1) and the classes of R's pieces
    there: their own (row 0) and the class below (row 1)."""
    x = np.append(table.cutoff_array, 1.0)
    k = np.arange(len(x))
    return x, np.stack([np.minimum(k, len(x) - 2), np.maximum(k - 1, 0)])


def _sale_delay(table: CutoffTable, x, n, z0):
    """Sale and delay values, in units of v_high, at beliefs x for priors of
    odds z0, with R on the pieces of classes n[0] and n[1], broadcast; w is
    their maximum."""
    r = mu_bar_1(table.params)
    sale = x + (1.0 - x) * (r - (1.0 - r) * z0)  # (1 - x) times the virtual value
    return sale, table.params.delta * np.maximum(_class_value(table, x, n[0], z0),
                                                 _class_value(table, x, n[1], z0))


def deviation_scan(table: CutoffTable, priors, tolerance: float | None = None) -> DeviationReport:
    """Bound on the best two-point deviation at every prior at once, from the
    equilibrium's own line (see the module docstring): the smaller bound of
    the chords of the prior's class and of the class below, ties to its own.

    A scalar prior gives scalar fields, an array of priors arrays.  PASS, a
    gap of at most the tolerance (default 1e-8 * v_high), proves that no
    deviation is profitable; worst_gap is then exact to rounding, and on a
    failure an upper bound.  The witness is the chosen chord's split, which
    is `equilibrium_split` except within rounding of a cutoff; on a failure
    it pairs the breakpoint of largest excess with the chord's far end.
    witness_gain is the witness's value under w minus the equilibrium value,
    a gain that deviations attain or, at a left limit, approach: so
    worst_gap >= the best gain >= witness_gain, and passing class-0 priors,
    whose witness is the equilibrium itself, read 0.
    """
    m0 = np.atleast_1d(belief(priors))
    v_high = table.params.v_high
    tol = 1e-8 * v_high if tolerance is None else tolerance

    # values in units of v_high from here on
    x, classes = _breakpoints(table)
    z0 = _prior_odds(m0)  # rejects prior 1
    n = np.searchsorted(table.cutoff_array, m0, side="right") - 1
    # the chords' left ends, for the prior's class and the class below
    left = np.stack([np.maximum(n - 1, 0), np.maximum(n - 2, 0)])
    bounds, worst = np.empty(left.shape), np.empty(left.shape, dtype=np.intp)
    rows = max(1, SCAN_BLOCK_SIZE // len(x))
    for lo in range(0, len(m0), rows):
        blk = slice(lo, lo + rows)
        w = np.maximum(*_sale_delay(table, x, classes, z0[blk, None]))
        for c in range(2):
            a, mb = left[c, blk, None], m0[blk, None]
            xa, wa, w1 = x[a], np.take_along_axis(w, a, 1), w[:, -1:]
            over = w - (wa * (1.0 - x) + w1 * (x - xa)) / (1.0 - xa)
            worst[c, blk] = np.argmax(over, axis=1)
            at_prior = (wa * (1.0 - mb) + w1 * (mb - xa)) / (1.0 - xa)
            bounds[c, blk] = (at_prior + np.maximum(over.max(axis=1, keepdims=True), 0.0))[:, 0]

    best, a, i = (np.choose(bounds[1] < bounds[0], v) for v in (bounds, left, worst))
    equilibrium = _class_value(table, m0, n, z0)
    passed = v_high * (best - equilibrium) <= tol
    # the chord's split, or on a failure the worst breakpoint and the far end
    pair = np.stack([np.where(passed | (x[i] > m0), a, i),
                     np.where(passed | (x[i] <= m0), len(x) - 1, i)])
    sale, delay = _sale_delay(table, x[pair], classes[:, pair], z0)
    weight_sale = (m0 - x[pair[0]]) / (x[pair[1]] - x[pair[0]])
    pool = passed & (n == 0)  # class 0 sells at the prior without information
    w = np.maximum(sale, delay)
    gain = np.where(pool, 0.0, (1.0 - weight_sale) * w[0] + weight_sale * w[1] - equilibrium)
    fields = [m0, v_high * best, v_high * equilibrium, v_high * (best - equilibrium),
              v_high * gain, *np.where(pool, m0, x[pair]),
              np.where(pool, 0.0, 1.0 - weight_sale), np.where(pool, 1.0, weight_sale),
              *np.where(pool, 1.0, sale >= delay)]
    if np.ndim(priors) == 0:
        fields = [float(f[0]) for f in fields]
    return DeviationReport(*fields[:5], witness=Split(*fields[5:]), tolerance=tol)


def structure_checks(table: CutoffTable, grid_n: int = 1001) -> StructureReport:
    """Structural sanity of the policy over a prior grid.

    Checks that delay posteriors are always cutoffs, that the delay posterior
    is nondecreasing in the prior, that sales happen at posterior 1 with
    probability one while the delay posterior trades exactly when the prior
    is below the first cutoff, and that at every cutoff the two class lines
    meeting there cross at its odds: the indifference gap at z_{n+1},
    (1 - delta)(delta^n (1 - r) z_{n+1} - z_n - b_n) / (1 + z_{n+1}) per
    unit of belief mass, stays below 1e-10 * v_high.  It reads the odds, not
    the cutoffs, which near belief 1 are rounded far coarser than 1e-10;
    CutoffTable holds each cutoff within two ulps of its odds.
    """
    p = table.params
    priors = np.linspace(0.0, 1.0, grid_n)[:-1]
    split = equilibrium_split(table, priors)
    delay = split.posterior_delay
    classed = table.delay_class(priors) >= 1
    on_cutoffs = bool(np.isin(delay[classed], table.cutoff_array).all())
    # the monotone delay posterior concerns priors that actually delay
    delayed = split.q_delay == 0.0
    path = delay[delayed]
    monotone = bool(np.all(path[1:] >= path[:-1]))
    above = priors >= table.cutoffs[1]
    sells = (split.posterior_sale == 1.0) & (split.q_sale == 1.0)
    exempt = table.degenerate & (priors == 0.0)  # belief 0 with v_low = 0 never trades
    shape_ok = bool(np.all(delayed == above) and np.all(sells | ~above | exempt))

    # every cutoff's crossing residual at once, at v_high = 1
    z, b = table.odds, table.intercepts
    n = np.arange(1, len(z) - 1)
    gaps = (1.0 - p.delta) * (table.rents[n] * z[n + 1] - (z[n] + b[n])) / (1.0 + z[n + 1])
    max_residual = float(np.max(np.abs(gaps), initial=0.0))
    residuals_ok = max_residual < RESIDUAL_TOL_PER_VHIGH

    return StructureReport(
        delay_posteriors_on_cutoffs=on_cutoffs,
        delay_monotone=monotone,
        split_shape_ok=shape_ok,
        cutoff_residuals_ok=residuals_ok,
        max_cutoff_residual=max_residual * p.v_high,
    )
