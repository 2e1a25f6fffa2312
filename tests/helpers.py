"""Independent oracles used by the test suite.

Everything here re-derives values from first principles (direct recursion on
the split definition, sign scans, brute-force hulls) without touching the
library's alpha/gamma bookkeeping, so a library bug cannot hide in its own
oracle.  The exceptions are `decompose_R` and `rent_correspondence` at the
end: views of the library's own coefficients and rents that only the tests
read.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from duropoly import belief, buyer_rent
from duropoly.value import _alpha_gamma


def oracle_vhat(p, mu):
    return p.v_low - mu / (1.0 - mu) * p.delta_v


def oracle_R(p, cuts, mu_prime, mu0):
    """Continuation value by direct downward recursion on the cutoff chain."""
    vhat = oracle_vhat(p, mu0)

    def klass(m):
        if m >= cuts[-1]:
            return len(cuts) - 1
        n = 0
        for j in range(1, len(cuts)):
            if m >= cuts[j]:
                n = j
        return n

    def rec(m, n):
        if n == 0:
            return m * p.v_high + (1.0 - m) * vhat
        c = cuts[n - 1]
        return (m - c) / (1.0 - c) * p.v_high + p.delta * (1.0 - m) / (1.0 - c) * rec(c, n - 1)

    return rec(mu_prime, klass(mu_prime))


def oracle_csv(header, rows) -> bytes:
    """Reference CSV bytes: csv.writer, with format(x, ".17g") for each float
    field and the writer's own str() for every other field."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([format(x, ".17g") if isinstance(x, float) else x for x in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def commitment_revenue(p, mu0):
    """Seller's optimum with full commitment: the better static posted price,
    v_low to both types or v_high to the high type alone."""
    return max(p.v_low, mu0 * p.v_high)


def class_one_revenue(p, mu0):
    """Revenue of a class-1 prior: the high type buys at once at
    v_high - delta * dv, the low type buys at v_low one period later.  At
    (1, 2, delta) and mu0 0.6 this is 1 + 0.2 (1 - delta)."""
    return mu0 * (p.v_high - p.delta * p.delta_v) + (1.0 - mu0) * p.delta * p.v_low


def oracle_gap(p, cuts, n, mus):
    """Delay-(n+1) minus delay-n split values at prior(s) mus, by direct
    recursion; vectorized over mus."""
    mus = np.asarray(mus, dtype=float)
    vhat = p.v_low - mus / (1.0 - mus) * p.delta_v

    def r_at(k):
        r = cuts[0] * p.v_high + (1.0 - cuts[0]) * vhat
        for j in range(1, k + 1):
            c, prev = cuts[j], cuts[j - 1]
            r = (c - prev) / (1.0 - prev) * p.v_high + p.delta * (1.0 - c) / (1.0 - prev) * r
        return r

    def split(k):
        c = cuts[k]
        return (mus - c) / (1.0 - c) * p.v_high + (1.0 - mus) / (1.0 - c) * p.delta * r_at(k)

    return split(n) - split(n - 1)


def scan_cutoff(p, cuts, n, n_points=1_000_000):
    """Locate the root of the delay indifference by a fine sign scan plus one
    secant step inside the bracketing pair.  Returns None when the gap never
    turns positive before belief 1."""
    mus = np.linspace(cuts[n], 1.0, n_points + 1)[:-1]
    g = oracle_gap(p, cuts, n, mus)
    pos = np.nonzero(g > 0.0)[0]
    if len(pos) == 0:
        return None
    i = int(pos[0])
    a, b, ga, gb = mus[i - 1], mus[i], g[i - 1], g[i]
    return float(a - ga * (b - a) / (gb - ga))


def brute_cav(x, y):
    """O(n^3) concave majorant on the grid: max over all bracketing chords."""
    n = len(x)
    out = np.array(y, dtype=float)
    for i in range(n):
        for j in range(i + 1):
            for k in range(i, n):
                if j == k:
                    v = y[j]
                else:
                    lam = (x[i] - x[j]) / (x[k] - x[j])
                    v = y[j] + lam * (y[k] - y[j])
                if v > out[i]:
                    out[i] = v
    return out


def best_two_point(grid, w, m0):
    """Best value over all Bayes-plausible two-point supports, pair by pair."""
    grid = np.asarray(grid, dtype=float)
    w = np.asarray(w, dtype=float)
    right = np.nonzero(grid > m0)[0]
    best = -np.inf
    for ia in np.nonzero(grid <= m0)[0]:
        xa = grid[ia]
        if xa == m0:
            best = max(best, float(w[ia]))
        lam = (m0 - xa) / (grid[right] - xa)
        best = max(best, float(np.max((1.0 - lam) * w[ia] + lam * w[right])))
    return best


def best_three_point(grid, w, m0, n_mix=7):
    """Best value over sampled three-point Bayes-plausible supports."""
    grid = np.asarray(grid, dtype=float)
    w = np.asarray(w, dtype=float)
    left = np.nonzero(grid <= m0)[0]
    right = np.nonzero(grid >= m0)[0]
    best = -np.inf
    for ia in left:
        xa = grid[ia]
        for ib in right:
            xb = grid[ib]
            if xb <= xa:
                continue
            mids = np.nonzero((grid > xa) & (grid < xb))[0]
            if len(mids) == 0:
                continue
            xm, wm_vals = grid[mids], w[mids]
            # largest weight the middle point can carry while the mean stays m0
            cap = np.minimum((xb - m0) / np.maximum(xb - xm, 1e-300),
                             (m0 - xa) / np.maximum(xm - xa, 1e-300))
            cap = np.clip(cap, 0.0, 1.0)
            for frac in np.linspace(0.0, 1.0, n_mix):
                wm = frac * cap
                wb = (m0 - wm * xm - (1.0 - wm) * xa) / (xb - xa)
                wa = 1.0 - wm - wb
                vals = wa * w[ia] + wm * wm_vals + wb * w[ib]
                ok = (wa >= -1e-12) & (wb >= -1e-12)
                if np.any(ok):
                    best = max(best, float(np.max(vals[ok])))
    return best


# (v_low, v_high, delta, mu0, class): a class-0, a class-2 and a v_low = 0
# prior, each solved through the CLI by the artifact round-trip tests
SOLVE_CASES = [
    (1.0, 2.0, 0.8, 0.3, 0),
    (1.0, 2.0, 0.8, 0.85, 2),
    (0.0, 1.0, 0.9, 0.3, 1),  # v_low = 0: sell at v_high or never
]


def solve_into(out, v_low, v_high, delta, mu0, grid=101):
    """Run ``solve`` into ``out`` and assert it exits 0."""
    from duropoly.cli import main

    argv = ["solve", "--v-low", v_low, "--v-high", v_high, "--delta", delta,
            "--mu0", mu0, "--grid", grid, "--out", out]
    assert main([str(a) for a in argv]) == 0


@dataclass(frozen=True)
class RDecomposition:
    """Coefficients of R(mu', .) on v_high and on the prior's virtual value."""

    alpha: float
    gamma: float


def decompose_R(table, mu_prime: float) -> RDecomposition:
    """Coefficients (alpha, gamma) with R(mu', mu0) = alpha v_high + gamma vhat(mu0)."""
    alpha, gamma = _alpha_gamma(table, belief(mu_prime))
    return RDecomposition(alpha=alpha, gamma=gamma)


CUTOFF_MATCH_TOL = 1e-12


def rent_correspondence(table, mu0: float) -> tuple[float, float]:
    """High-type rent set at mu0: a singleton off cutoffs, the closed interval
    [delta^i dv, delta^(i-1) dv] at cutoff i >= 1.  Only the nearer of the
    two cutoffs bounding mu0's class can match, within 1e-12 relative to it."""
    m0 = belief(mu0)
    if table.degenerate:
        return (0.0, 0.0)
    p, c = table.params, table.cutoffs
    i = table.delay_class(m0)
    if i + 1 < len(c) and c[i + 1] - m0 < m0 - c[i]:
        i += 1
    if i >= 1 and abs(m0 - c[i]) <= CUTOFF_MATCH_TOL * c[i]:
        return (p.delta**i * p.delta_v, p.delta ** (i - 1) * p.delta_v)
    r = buyer_rent(table, m0)
    return (r, r)
