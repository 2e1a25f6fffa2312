"""Independent equilibrium verification.

The ground-truth check is an exhaustive one-shot deviation scan: at each
prior, every Bayes-plausible two-point distribution over a posterior grid is
valued at the better of selling now and delaying, and the best value found is
compared against the equilibrium value.  Two-point support is sufficient
because a distribution with a single mean constraint admits an optimum on at
most two points.  The concave envelope is also computed, for diagnostics and
figure reproduction; the continuation values fail upper semicontinuity at
cutoffs above the prior's class, so the envelope formula is not the check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import belief, virtual_value
from .cutoffs import CutoffTable, indifference_gap
from .mechanism import Split, equilibrium_split
from .value import eval_R

RESIDUAL_TOL_PER_VHIGH = 1e-10
ENVELOPE_FIXPOINT_MAX_PASSES = 8


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
    witness: Split | None
    envelope_value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_gap <= self.tolerance


@dataclass(frozen=True)
class StructureReport:
    delay_posteriors_on_cutoffs: bool
    delay_monotone: bool
    delay_finite: bool
    split_shape_ok: bool
    cutoff_residuals_ok: bool
    max_cutoff_residual: float

    @property
    def all_ok(self) -> bool:
        return (
            self.delay_posteriors_on_cutoffs
            and self.delay_monotone
            and self.delay_finite
            and self.split_shape_ok
            and self.cutoff_residuals_ok
        )


def _hull_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One monotone-chain pass: least concave majorant values on the grid.

    Kept points retain their values exactly; a point below a chord gets the
    larger of its own value and the chord's interpolation, so the result
    never drops below the input.  The turn test carries a tolerance scaled to
    the data so that rounding-level dips (in particular, chord values written
    by a previous pass) are treated as collinear and kept; affine data comes
    back unchanged and re-applying the pass to its own output is a no-op.
    """
    n = len(x)
    # noise bound for the cross product of three on-chord points
    slack = 64.0 * np.finfo(float).eps * max(1e-300, float(np.max(np.abs(y))))
    stack = [0]
    for i in range(1, n):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            # pop b when it dips below the chord from a to i by more than noise
            cross = (x[b] - x[a]) * (y[i] - y[b]) - (y[b] - y[a]) * (x[i] - x[b])
            if cross > slack * (x[i] - x[a]):
                stack.pop()
            else:
                break
        stack.append(i)
    env = y.copy()
    for left, right in zip(stack[:-1], stack[1:]):
        if right - left > 1:
            span = slice(left + 1, right)
            lam = (x[span] - x[left]) / (x[right] - x[left])
            env[span] = np.maximum(y[span], y[left] + lam * (y[right] - y[left]))
    return env


def concave_envelope(points) -> list[EnvelopePoint]:
    """Least concave majorant of (belief, value) points, restricted to the grid.

    The hull pass never lowers a value, so iterating it is monotone and
    reaches a fixed point; re-applying the envelope to its own output then
    reproduces it bit for bit.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    x = np.asarray([q[0] for q in pts], dtype=float)
    y = np.asarray([q[1] for q in pts], dtype=float)
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("beliefs must be strictly increasing")

    env = _hull_values(x, y)
    for _ in range(ENVELOPE_FIXPOINT_MAX_PASSES):
        nxt = _hull_values(x, env)
        if np.array_equal(nxt, env):
            break
        env = nxt
    return [EnvelopePoint(float(xi), float(yi), float(ei)) for xi, yi, ei in zip(x, y, env)]


def _stage_values(table: CutoffTable, grid: np.ndarray, mu0: float):
    """Sell-now and discounted-delay values at every grid posterior."""
    p = table.params
    vhat0 = virtual_value(p, mu0)
    sale = grid * p.v_high + (1.0 - grid) * vhat0
    delay = p.delta * eval_R(table, grid, mu0)
    return sale, delay


def deviation_scan(
    table: CutoffTable,
    mu0: float,
    grid_n: int = 1001,
    tolerance: float | None = None,
) -> DeviationReport:
    """Exhaustive two-point deviation search at one prior.

    The grid is grid_n uniform points joined with every cutoff and the prior
    itself (the optimum lives at cutoffs, which a uniform grid would miss).
    PASS means the best deviation exceeds the equilibrium value by at most
    the tolerance, default 1e-8 * v_high.
    """
    if grid_n < 101:
        raise ValueError("grid_n must be at least 101")
    m0 = belief(mu0)
    if m0 == 1.0:
        raise ValueError("deviation scan has a pole at prior 1")
    p = table.params
    tol = 1e-8 * p.v_high if tolerance is None else tolerance

    grid = np.unique(
        np.concatenate([np.linspace(0.0, 1.0, grid_n), np.asarray(table.cutoffs), [m0]])
    )
    sale, delay = _stage_values(table, grid, m0)
    w = np.maximum(sale, delay)

    i_left = np.where(grid <= m0)[0]
    i_right = np.where(grid >= m0)[0]
    a, b = grid[i_left], grid[i_right]
    den = b[None, :] - a[:, None]
    num = w[i_left][:, None] * (b[None, :] - m0) + w[i_right][None, :] * (m0 - a[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / den
    at_prior = int(np.searchsorted(grid, m0))
    vals[den == 0.0] = w[at_prior]

    flat = int(np.argmax(vals))
    ia, ib = i_left[flat // vals.shape[1]], i_right[flat % vals.shape[1]]
    best = float(vals.flat[flat])
    pa, pb = float(grid[ia]), float(grid[ib])
    weight_sale = 1.0 if pa == pb else (m0 - pa) / (pb - pa)
    witness = Split(
        posterior_delay=pa,
        posterior_sale=pb,
        weight_delay=1.0 - weight_sale,
        weight_sale=weight_sale,
        q_delay=float(sale[ia] >= delay[ia]),
        q_sale=float(sale[ib] >= delay[ib]),
    )

    equilibrium = float(eval_R(table, m0, m0))

    # diagnostic: concavify max(sale, delta * cav R); where upper
    # semicontinuity fails this can exceed the scan value at knife edges
    cav_r = np.asarray([q.envelope for q in concave_envelope(zip(grid, eval_R(table, grid, m0)))])
    obj = np.maximum(sale, p.delta * cav_r)
    env = concave_envelope(zip(grid, obj))
    envelope_value = env[at_prior].envelope

    return DeviationReport(
        prior=m0,
        best_deviation_value=best,
        equilibrium_value=equilibrium,
        worst_gap=best - equilibrium,
        witness=witness,
        envelope_value=envelope_value,
        tolerance=tol,
    )


def structure_checks(table: CutoffTable, grid_n: int = 1001) -> StructureReport:
    """Structural sanity of the policy over a prior grid.

    Checks that delay posteriors are always cutoffs, that the delay posterior
    is nondecreasing in the prior, that every prior below 1 is in a finite
    class, that sales happen at posterior 1 with probability one while the
    delay posterior trades exactly when the prior is below the first cutoff,
    and that every computed cutoff satisfies its defining indifference to
    1e-10 * v_high.
    """
    p = table.params
    priors = np.linspace(0.0, 1.0, grid_n)[:-1]
    cutset = set(table.cutoffs)

    on_cutoffs = True
    monotone = True
    finite = True
    shape_ok = True
    last_delay = -1.0
    first_cut = 0.0 if table.degenerate else table.cutoffs[1]
    for m0 in priors:
        try:
            n = table.delay_class(float(m0))
        except Exception:
            finite = False
            continue
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
    residuals_ok = True
    if not table.degenerate:
        for n in range(1, len(table.cutoffs) - 1):
            r = abs(indifference_gap(p, table, n, table.cutoffs[n + 1]))
            max_residual = max(max_residual, r)
        residuals_ok = max_residual < RESIDUAL_TOL_PER_VHIGH * p.v_high

    return StructureReport(
        delay_posteriors_on_cutoffs=on_cutoffs,
        delay_monotone=monotone,
        delay_finite=finite,
        split_shape_ok=shape_ok,
        cutoff_residuals_ok=residuals_ok,
        max_cutoff_residual=max_residual,
    )
