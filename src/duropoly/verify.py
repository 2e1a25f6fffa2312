"""Independent equilibrium verification.

At each prior mu0, every Bayes-plausible distribution over posteriors is
valued at w, the better of selling now and delaying, and the best value is
compared against the equilibrium value.  A distribution with a single mean
constraint has an optimum on at most two points, so the best split is the
upper concave hull of w at the prior (concavification).

The hull is exact over the whole continuum of posteriors.  On each class
[mu_bar_k, mu_bar_{k+1}) the sale value and delta * R(., mu0) are both affine
in the posterior, so w, their maximum, is convex there: a sale/delay
crossing is a convex kink, never a hull vertex.  The hull of w on [0, 1] is
therefore the hull of its suprema at the breakpoints, every cutoff and 1.
R jumps at a cutoff unless the cutoff is the prior, so the supremum there is
the larger of its own class's value and the left limit of the class below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import belief, virtual_value
from .cutoffs import CutoffTable, _gap, unit_params
from .mechanism import Split, equilibrium_split
from .value import _class_alpha_gamma, eval_R

RESIDUAL_TOL_PER_VHIGH = 1e-10


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


def _breakpoint_values(table: CutoffTable, mu0: float):
    """Breakpoints of w at prior mu0 (every cutoff and 1), the supremum of w
    at each, and whether selling now gives it."""
    p = table.params
    vhat0 = virtual_value(p, mu0)
    if table.degenerate:
        # R(mu', mu0) = mu' * v_high is affine on all of [0, 1]
        x = np.array([0.0, 1.0])
        r = x * p.v_high
    else:
        x = np.append(table.cutoff_array, 1.0)
        k = np.arange(len(x))

        def on_piece(idx):
            alpha, gamma = _class_alpha_gamma(table, x, idx)
            return alpha * p.v_high + gamma * vhat0

        # each point on its own class's piece (belief 1 closes the last class)
        # and on the piece of the class below it
        r = np.maximum(on_piece(np.minimum(k, len(x) - 2)), on_piece(np.maximum(k - 1, 0)))
    sale = x * p.v_high + (1.0 - x) * vhat0
    delay = p.delta * r
    return x, np.maximum(sale, delay), sale >= delay


def deviation_scan(
    table: CutoffTable,
    mu0: float,
    tolerance: float | None = None,
) -> DeviationReport:
    """Best two-point deviation at one prior: the upper hull of w at the prior.

    w is the better of selling now and delaying at each posterior.  It is
    convex on every delay class, so its upper hull over all of [0, 1] is the
    hull of its suprema at the cutoffs and 1, and the best deviation is that
    hull read off between the two vertices around the prior; no grid is
    involved.  The witness is that pair of vertices, each marked sale or
    delay by the piece that gives it its value.  PASS means the best
    deviation exceeds the equilibrium value by at most the tolerance,
    default 1e-8 * v_high.
    """
    m0 = belief(mu0)
    if m0 == 1.0:
        raise ValueError("deviation scan has a pole at prior 1")
    p = table.params
    tol = 1e-8 * p.v_high if tolerance is None else tolerance

    x, w, sells = _breakpoint_values(table, m0)
    hull = _upper_hull(x, w)
    hx = x[hull]
    k = int(np.searchsorted(hx, m0))
    ia, ib = (hull[k], hull[k]) if hx[k] == m0 else (hull[k - 1], hull[k])
    pa, pb = float(x[ia]), float(x[ib])
    if pa == pb:
        best, weight_sale = float(w[ia]), 1.0
    else:
        best = float((w[ia] * (pb - m0) + w[ib] * (m0 - pa)) / (pb - pa))
        weight_sale = (m0 - pa) / (pb - pa)
    witness = Split(
        posterior_delay=pa,
        posterior_sale=pb,
        weight_delay=1.0 - weight_sale,
        weight_sale=weight_sale,
        q_delay=float(sells[ia]),
        q_sale=float(sells[ib]),
    )

    equilibrium = float(eval_R(table, m0, m0))
    return DeviationReport(
        prior=m0,
        best_deviation_value=best,
        equilibrium_value=equilibrium,
        worst_gap=best - equilibrium,
        witness=witness,
        tolerance=tol,
    )


def structure_checks(table: CutoffTable, grid_n: int = 1001) -> StructureReport:
    """Structural sanity of the policy over a prior grid.

    Checks that delay posteriors are always cutoffs, that the delay posterior
    is nondecreasing in the prior, that sales happen at posterior 1 with
    probability one while the delay posterior trades exactly when the prior
    is below the first cutoff, and that every computed cutoff satisfies its
    defining indifference to 1e-10 * v_high.
    """
    p = table.params
    priors = np.linspace(0.0, 1.0, grid_n)[:-1]
    cutset = set(table.cutoffs)

    on_cutoffs = True
    monotone = True
    shape_ok = True
    last_delay = -1.0
    first_cut = 0.0 if table.degenerate else table.cutoffs[1]
    for m0 in priors:
        n = table.delay_class(float(m0))
        split = equilibrium_split(table, float(m0))
        if n >= 1 and split.posterior_delay not in cutset:
            on_cutoffs = False
        if split.q_delay == 0.0:
            # the monotone delay posterior concerns priors that actually delay
            if split.posterior_delay < last_delay:
                monotone = False
            last_delay = split.posterior_delay
        delayed = split.q_delay == 0.0
        if delayed != (m0 >= first_cut):
            shape_ok = False
        if m0 >= first_cut and not (split.posterior_sale == 1.0 and split.q_sale == 1.0):
            if not (table.degenerate and m0 == 0.0):
                shape_ok = False

    max_residual = 0.0
    if not table.degenerate:
        # every cutoff's indifference residual at once, at v_high = 1
        cuts = table.cutoff_array
        n = np.arange(1, len(cuts) - 1)
        gaps = _gap(unit_params(p), cuts[n + 1], cuts, table.alphas, table.gammas, n)
        max_residual = float(np.max(np.abs(gaps), initial=0.0))
    residuals_ok = max_residual < RESIDUAL_TOL_PER_VHIGH

    return StructureReport(
        delay_posteriors_on_cutoffs=on_cutoffs,
        delay_monotone=monotone,
        split_shape_ok=shape_ok,
        cutoff_residuals_ok=residuals_ok,
        max_cutoff_residual=max_residual * p.v_high,
    )
