"""Independent equilibrium verification.

At each prior mu0, every Bayes-plausible distribution over posteriors is
valued at w, the better of selling now and delaying.  Take values in units
of v_high and per unit of low-type mass: a posterior mu of odds x is worth
w(mu) / (1 - mu), and belief 1 adds a ray of slope 1 in x, so a split is
worth the prior's odds z0 plus the low-mass average of w(mu) / (1 - mu) - x.
Net of that ray every option is a line in z0 (r = v_low / v_high; z_k, b_k,
rho_k the table's odds, intercepts and rents):

    sell now:               s   = r - (1 - r) z0, at any posterior;
    delay to cutoff k:      d_k = delta (b_k - rho_k z0) - (1 - delta) z_k;
    the prior's own class:  c_n = b_n - rho_n z0.

Delaying on class k falls in x, so its best posterior is cutoff k, and by
the intercept recursion d_k = c_{k+1}.  No split beats the best option, so
the best deviation gains at most v_high (1 - mu0) (max(s, d_0..d_K, c_n) -
c_n), and exactly that when the best option's posterior lies at or below the
prior, where a split with posterior 1 reaches it.  A pass proves the
equilibrium.  The scan runs in units of v_high, so it stays finite up to the
float64 maximum.

structure_checks reads the chain itself: at every cutoff the two class
lines meeting there must cross at its odds.  The split's shape (delay
posteriors on cutoffs, in order, sales at posterior 1) is _class_split's
definition, so the tests check it over the domain rather than verify.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import belief, mu_bar_1, prior_odds
from .cutoffs import CutoffTable
from .mechanism import Split, _class_split

RESIDUAL_TOL_PER_VHIGH = 1e-10
# Cells of the (priors x options) array deviation_scan holds at once, in
# whole rows; rows are independent, so results do not depend on it.
SCAN_BLOCK_SIZE = 1 << 14


class EnvelopePoint(NamedTuple):
    """One grid point of concave_envelope: its belief, input value and envelope value."""
    mu: float
    raw: float
    envelope: float


class DeviationReport(NamedTuple):
    """deviation_scan at a prior or at an array of priors: values, gaps and the tolerance (the
    largest passing gap) in v_high's units; witness is the split attaining witness_gain."""
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


class StructureReport(NamedTuple):
    """structure_checks: whether every crossing residual is below 1e-10 v_high; the largest."""
    cutoff_residuals_ok: bool
    max_cutoff_residual: float


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


def deviation_scan(table: CutoffTable, priors, tolerance: float | None = None) -> DeviationReport:
    """Bound on the best two-point deviation at every prior at once, from
    the option lines of the module docstring.

    A scalar prior gives scalar fields, an array of priors arrays.  PASS, a
    gap of at most the tolerance (default 1e-8 * v_high), proves that no
    deviation is profitable.  The witness is the best option whose delay
    posterior lies at or below the prior, ties to the prior's own class:
    selling at the prior (the class-0 split) or delaying to cutoff k (the
    class-(k + 1) split).  witness_gain is its gain, which some deviation
    attains, so worst_gap >= the best gain >= witness_gain, equal when the
    best option is the witness; a prior whose own class wins reads 0.
    """
    m0 = np.atleast_1d(belief(priors))
    p = table.params
    tol = 1e-8 * p.v_high if tolerance is None else tolerance

    # values in units of v_high from here on; column j of the options is
    # the class-j split: selling at the prior, then delaying to cutoff j - 1
    z, b, rho, r, d = table.odds, table.intercepts, table.rents, mu_bar_1(p), p.delta
    shift = (1.0 - d) * z
    z0 = prior_odds(m0)
    n = table.classes(m0)
    top, best, j = np.empty(len(m0)), np.empty(len(m0)), np.empty(len(m0), dtype=np.intp)
    cols = np.arange(len(z) + 1)
    rows = max(1, SCAN_BLOCK_SIZE // len(cols))
    for lo in range(0, len(m0), rows):
        blk = slice(lo, lo + rows)
        zb = z0[blk, None]
        options = np.concatenate([r - (1.0 - r) * zb, d * (b - rho * zb) - shift], axis=1)
        top[blk] = options.max(axis=1)
        options[cols > n[blk, None] + 1] = -np.inf  # delays to cutoffs above the prior
        j[blk] = options.argmax(axis=1)
        best[blk] = options.max(axis=1)

    own = b[n] - rho[n] * z0
    j = np.where(own >= best, n, j)  # ties to the prior's own class
    top, best, low, v = np.maximum(top, own), np.maximum(best, own), 1.0 - m0, p.v_high
    # m0 + low * own is R(mu0, mu0) / v_high, read off the prior's class line
    fields = [m0, v * (m0 + low * top), v * (m0 + low * own), v * (low * (top - own)),
              v * (low * (best - own)), *_class_split(table, m0, j)]
    if np.ndim(priors) == 0:
        fields = [float(f[0]) for f in fields]
    return DeviationReport(*fields[:5], witness=Split(*fields[5:]), tolerance=tol)


def structure_checks(table: CutoffTable) -> StructureReport:
    """The chain's crossing residuals: at every cutoff the two class lines
    meeting there cross at its odds.  The indifference gap at z_{n+1},
    (1 - delta)(delta^n (1 - r) z_{n+1} - z_n - b_n) / (1 + z_{n+1}) per
    unit of belief mass, stays below 1e-10 * v_high.  It reads the odds, not
    the cutoffs, which near belief 1 are rounded far coarser than 1e-10;
    CutoffTable derives each cutoff from its odds.
    """
    p = table.params
    # every cutoff's crossing residual at once, at v_high = 1
    z, b = table.odds, table.intercepts
    n = np.arange(1, len(z) - 1)
    gaps = (1.0 - p.delta) * (table.rents[n] * z[n + 1] - (z[n] + b[n])) / (1.0 + z[n + 1])
    max_residual = float(np.max(np.abs(gaps), initial=0.0))
    return StructureReport(
        cutoff_residuals_ok=max_residual < RESIDUAL_TOL_PER_VHIGH,
        max_cutoff_residual=max_residual * p.v_high,
    )
