"""Independent oracles used by the test suite.

Everything here re-derives values from first principles (direct recursion on
the split definition, the odds recurrence in 60-digit decimal arithmetic,
sign scans, brute-force hulls) without touching the library's class lines,
so a library bug cannot hide in its own oracle.  The exceptions are
`decompose_R`, `rent_correspondence`, `uncut_table` and `misplaced_table`
at the end: views of the library's own coefficients and rents that only the
tests read, a table of the decimal chain with its belief ties kept, and the
negative controls' deliberately wrong table.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from duropoly import CutoffTable, belief, buyer_rent

# Within this distance of belief 1, times 1 - delta, no float64 belief can
# hold the indifference residual in belief space below 1e-10 * v_high: the
# gap's slope times half an ulp of the belief comes near it.  The chain once
# placed a cutoff only while the one below it lay this far from 1, and the
# residual at a cutoff's stored belief is asserted on those cutoffs alone;
# every cutoff is checked in odds, by its crossing identity and against the
# 60-digit chain.
RESOLVED_IN_BELIEF = 2.3e-5
# digits of the decimal chain
EXACT_DIGITS = 60


def oracle_vhat(p, mu):
    return p.v_low - mu / (1.0 - mu) * p.delta_v


def oracle_R(p, cuts, mu_prime, mu0):
    """Continuation value by direct downward recursion on the cutoff chain.
    The recursion divides by 1 - mu_bar at each step, so it loses accuracy
    on classes near belief 1: at (0.002, 2, 0.99) it is off by up to
    2.5e-4 (1 + z0) v_high there, z0 the prior's odds.  Compare there
    against `exact_R`."""
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


def recipe_revenue(p, grid_n):
    """The seller's revenue at the beliefs mu = linspace(0, 1, grid_n)[:-1]
    by the paper's recipe: backward induction among the seller's
    incarnations indexed by belief, with no chain, line or cutoff.  Belief 0 sells to both types at v_low, leaving
    the high type v_high - v_low.  Incarnation mu_i does the same, or picks
    a no-sale posterior mu_j < mu_i and posts v_high - delta U_j; the high
    type accepts with the probability that leaves posterior mu_j, so
    w = (mu_i - mu_j) / (1 - mu_j) of the mass trades, the seller earns
    w (v_high - delta U_j) + (1 - w) delta V_j and the high type keeps
    U_i = delta U_j.  Returns (mu, V).  Needs v_low > 0: belief 0's
    absorbing no-trade state at v_low = 0 is not among the options."""
    mu = np.linspace(0.0, 1.0, grid_n)[:-1]
    v, u = np.empty_like(mu), np.empty_like(mu)
    v[0], u[0] = p.v_low, p.delta_v
    for i in range(1, len(mu)):
        w = (mu[i] - mu[:i]) / (1.0 - mu[:i])
        delay = w * (p.v_high - p.delta * u[:i]) + (1.0 - w) * p.delta * v[:i]
        j = int(np.argmax(delay))
        v[i], u[i] = (delay[j], p.delta * u[j]) if delay[j] > p.v_low else (p.v_low, p.delta_v)
    return mu, v


@dataclass(frozen=True)
class ExactChain:
    """The odds recurrence z_{n+1} = (z_n + b_n) / (delta^n (1 - r)),
    b_{n+1} = delta b_n - (1 - delta) z_n from (0, r), run in 60-digit
    decimal arithmetic on the exact values of the floats r and delta; the
    cutoffs are z_n / (1 + z_n)."""

    ratio: Decimal
    delta: Decimal
    odds: tuple
    intercepts: tuple
    cutoffs: tuple


def exact_chain(ratio: float, delta: float, n_cutoffs: int) -> ExactChain:
    """The first n_cutoffs entries of the decimal chain at v_low / v_high =
    ratio."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        r, d = Decimal(ratio), Decimal(delta)
        z, b, dn = [Decimal(0)], [r], Decimal(1)
        for n in range(n_cutoffs - 1):
            z.append((z[n] + b[n]) / (dn * (1 - r)))
            b.append(d * b[n] - (1 - d) * z[n])
            dn *= d
        return ExactChain(r, d, tuple(z), tuple(b), tuple(x / (1 + x) for x in z))


def exact_R(chain: ExactChain, n: int, mu_prime: float, mu0: float) -> float:
    """R(mu', mu0) / v_high on the class-n line of the decimal chain:
    mu' + (1 - mu') (b_n - delta^n (1 - r) z0), z0 the prior's odds."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        m, m0 = Decimal(mu_prime), Decimal(mu0)
        z0 = m0 / (1 - m0)
        rent = chain.delta**n * (1 - chain.ratio)
        return float(m + (1 - m) * (chain.intercepts[n] - rent * z0))


def first_float_prior(z: Decimal) -> float:
    """The least float64 mu below 1 whose float odds mu / (1 - mu) reach z,
    for 0 < z <= 2^53 - 1 (the odds of 1 - 2^-53), by stepping ulps from
    the rounded belief."""
    mu = min(float(z / (1 + z)), 1.0 - 2.0**-53)
    while Decimal(mu / (1.0 - mu)) < z:
        mu = float(np.nextafter(mu, 1.0))
    while Decimal((prev := float(np.nextafter(mu, 0.0))) / (1.0 - prev)) >= z:
        mu = prev
    return mu


def check_against_exact_chain(table):
    """Assert that a table's cutoffs, odds and intercepts lie within 4 eps
    per cutoff of the decimal chain, relative, in odds (over 150 random sets
    rounding added at most a third of an eps per cutoff); that each cutoff's
    two class lines cross at its odds; and that the decimal chain's next
    odds exceed 2^53 - 1, the odds of the largest float below 1, or its
    first float prior ties with the last cutoff, so the table ends only
    where float priors run out of classes.  Returns the decimal chain."""
    p = table.params
    cuts, z, b = table.cutoffs, table.odds, table.intercepts
    k = len(cuts)
    tol = 4.0 * np.finfo(float).eps * k
    exact = exact_chain(p.v_low / p.v_high, p.delta, k + 1)
    for n in range(k):
        zx, mx = exact.odds[n], exact.cutoffs[n]
        # odds and intercepts below 1e-300 are subnormal in the table
        assert abs(z[n] - float(zx)) <= tol * float(zx) + 1e-300, (n, z[n], zx)
        assert abs(b[n] - float(exact.intercepts[n])) <= tol * (1.0 + float(zx)) + 1e-300, n
        # the stored cutoff is rounded once more, by at most an ulp
        err = abs(float(Decimal(cuts[n]) - mx))
        assert err <= tol * float(min(mx, 1 - mx)) + np.spacing(cuts[n]), (n, cuts[n], mx)
        if 1 <= n < k - 1:
            rent = p.delta**n * (1.0 - p.v_low / p.v_high)
            crossing = (1.0 - p.delta) * (rent * z[n + 1] - (z[n] + b[n])) / (1.0 + z[n + 1])
            assert abs(crossing) <= 1e-10, (n, crossing)
    nxt = exact.odds[k]
    assert nxt > 2**53 - 1 or first_float_prior(nxt) == cuts[-1], (cuts[-1], nxt)
    return exact


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
    """Coefficients (alpha, gamma) with R(mu', mu0) = alpha v_high + gamma vhat(mu0),
    read off the class-n line of mu': gamma = (1 - mu') delta^n and
    alpha = mu' + (1 - mu') (b_n - delta^n r)."""
    m = belief(mu_prime)
    n = int(np.searchsorted(table.cutoffs, m, side="right")) - 1
    disc = table.discounts[n]
    r = table.params.v_low / table.params.v_high
    return RDecomposition(alpha=float(m + (1.0 - m) * (table.intercepts[n] - disc * r)),
                          gamma=float((1.0 - m) * disc))


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


def uncut_table(p):
    """The table of the whole chain at market p, with no cut at a belief
    tie: the decimal chain's odds and intercepts rounded to float, up to
    the last entry with odds at most 2^53 - 1, the odds of 1 - 2^-53.
    Where compute_cutoffs ends at the first tie, this table keeps the
    classes above it, whose cutoffs repeat a float belief."""
    n = 64
    while (chain := exact_chain(p.v_low / p.v_high, p.delta, n)).odds[-1] <= 2**53 - 1:
        n *= 2
    odds = np.array([float(z) for z in chain.odds])
    keep = odds <= 2.0**53 - 1.0
    return CutoffTable(p, odds[keep], np.array([float(b) for b in chain.intercepts])[keep])


def misplaced_table(table, n: int, shift: float):
    """The table with cutoff n moved by shift: the odds of the moved
    cutoffs, mu / (1 - mu), and the intercept recursion
    b_{k+1} = delta b_k - (1 - delta) z_k from b_0 = v_low / v_high run on
    them, so every class line above cutoff n is off too.  The negative
    controls' table, which no equilibrium passes."""
    c = table.cutoffs.copy()
    c[n] += shift
    z = c / (1.0 - c)
    d, b = table.params.delta, [table.params.v_low / table.params.v_high]
    for zk in z[:-1].tolist():
        b.append(d * b[-1] - (1.0 - d) * zk)
    return CutoffTable(table.params, z, np.asarray(b))
