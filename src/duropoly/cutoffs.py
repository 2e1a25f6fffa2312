"""Cutoff sequence and delay classes.

The belief interval [0, 1] splits into classes D_n = [mu_bar_n, mu_bar_{n+1});
a seller whose prior sits in D_n lets n periods pass before trading with the
low-valuation buyer.  Each cutoff beyond mu_bar_1 = v_low / v_high is the root
of a one-period-more vs one-period-less indifference equation.  That equation
is affine in the belief, so each root has a closed form.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import MarketParams, belief, mu_bar_1

# Within this distance of belief 1 (scaled by 1 - delta) the indifference
# equation is so steep that no float64 belief can hold its residual below
# 1e-10 * v_high, so the table stops and reports ReachedOne instead of
# emitting numerically meaningless cutoffs.
RESOLUTION_GUARD = 2.3e-5


class HorizonReason(Enum):
    """Why the cutoff table stopped growing."""

    REACHED_ONE = "reached_one"
    MAX_ITERATIONS = "max_iterations"


class TableExhausted(Exception):
    """A belief lies beyond a table that was truncated by the iteration cap."""


@dataclass(frozen=True)
class StoppingRule:
    max_cutoffs: int = 200
    proximity_to_one: float = 1e-10

    def __post_init__(self):
        if self.max_cutoffs < 2:
            raise ValueError("max_cutoffs must be at least 2")
        if self.proximity_to_one <= 0.0:
            raise ValueError("proximity_to_one must be positive")


@dataclass(frozen=True)
class CutoffTable:
    """Increasing cutoffs mu_bar_0 = 0 <= mu_bar_1 < mu_bar_2 < ... and the
    reason the sequence was truncated."""

    params: MarketParams
    cutoffs: tuple[float, ...]
    horizon_reason: HorizonReason

    def __post_init__(self):
        c = self.cutoffs
        if len(c) < 2 or c[0] != 0.0 or c[1] < 0.0 or any(b <= a for a, b in zip(c[1:], c[2:])):
            raise ValueError(f"need cutoffs 0 = mu_bar_0 <= mu_bar_1 < mu_bar_2 < ..., got {c}")

    @property
    def degenerate(self) -> bool:
        """v_low = 0 collapses the partition: every positive prior delays at
        posterior 0 and the low type is never served."""
        return self.params.v_low == 0.0

    @cached_property
    def alphas(self) -> tuple[float, ...]:
        """Discounted probability of eventually trading with the high type,
        evaluated at each cutoff treated as a member of its own class."""
        d = self.params.delta
        out = [0.0]
        for k in range(1, len(self.cutoffs)):
            out.append(_alpha_step(d, self.cutoffs[k], self.cutoffs[k - 1], out[-1]))
        return tuple(out)

    @cached_property
    def gammas(self) -> tuple[float, ...]:
        """Discount weight (1 - mu_bar_k) * delta^k carried by the virtual value."""
        d = self.params.delta
        return tuple((1.0 - c) * d**k for k, c in enumerate(self.cutoffs))

    def delay_class(self, mu: float) -> int:
        """Number of periods until the no-trade belief path hits 0.

        Ties at a cutoff belong to the higher class (indifference is broken
        in favor of delay).  Beliefs beyond the last cutoff belong to the
        final class when the table reached 1, and raise TableExhausted when
        it was truncated by the iteration cap.
        """
        m = belief(mu)
        if self.degenerate:
            return 0 if m == 0.0 else 1
        if m >= self.cutoffs[-1]:
            if self.horizon_reason is HorizonReason.REACHED_ONE:
                return len(self.cutoffs) - 1
            raise TableExhausted(
                f"belief {m} beyond last computed cutoff {self.cutoffs[-1]}"
            )
        return int(np.searchsorted(self.cutoffs, m, side="right")) - 1

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "mu_bar"])
            for n, c in enumerate(self.cutoffs):
                writer.writerow([n, format(c, ".17g")])

    def to_json(self) -> dict:
        return {
            "v_low": self.params.v_low,
            "v_high": self.params.v_high,
            "delta": self.params.delta,
            "cutoffs": list(self.cutoffs),
            "horizon_reason": self.horizon_reason.value,
            "degenerate": self.degenerate,
        }

    def write_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)


def _alpha_step(d: float, mu, prev: float, alpha_prev: float):
    """alpha at belief mu in the class whose delay posterior is the cutoff
    prev, given alpha_prev, the alpha at prev."""
    return (mu - prev) / (1.0 - prev) + d * (1.0 - mu) / (1.0 - prev) * alpha_prev


def _split_value(p: MarketParams, mu, c: float, alpha_c: float, gamma_c: float):
    """Value at prior mu of splitting between posterior 1 (sell) and posterior
    c (delay), with continuation alpha_c * v_high + gamma_c * vhat(mu).

    The (1 - mu) * vhat(mu) product is expanded so the expression stays finite
    as mu approaches 1.
    """
    one_minus = 1.0 - mu
    r_scaled = alpha_c * p.v_high * one_minus + gamma_c * (one_minus * p.v_low - mu * p.delta_v)
    return ((mu - c) * p.v_high + p.delta * r_scaled) / (1.0 - c)


def _gap(p: MarketParams, mu: float, cuts, alphas, n: int) -> float:
    """Split value with delay posterior cuts[n] minus that with cuts[n - 1];
    affine in mu."""
    d = p.delta
    hi = _split_value(p, mu, cuts[n], alphas[n], (1.0 - cuts[n]) * d**n)
    lo = _split_value(p, mu, cuts[n - 1], alphas[n - 1], (1.0 - cuts[n - 1]) * d ** (n - 1))
    return hi - lo


def indifference_gap(p: MarketParams, table_prefix: CutoffTable, n: int, mu: float) -> float:
    """Value of delaying n+1 periods minus the value of delaying n periods.

    Affine and strictly increasing in mu, negative at mu_bar_n, and zero
    exactly at mu_bar_{n+1}; this is the equation that pins each cutoff.
    """
    if table_prefix.degenerate:
        raise ValueError("indifference gap is undefined when v_low = 0")
    cuts = table_prefix.cutoffs
    if not 1 <= n < len(cuts):
        raise ValueError(f"need a table prefix holding cutoffs 0..{n}, got {len(cuts)}")
    m = belief(mu)
    if m == 1.0:
        raise ValueError("indifference gap has a pole at belief 1")
    return _gap(p, m, cuts, table_prefix.alphas, n)


def compute_cutoffs(p: MarketParams, stop: StoppingRule = StoppingRule()) -> CutoffTable:
    """Build the cutoff table for one parameter set.

    Starts from mu_bar_0 = 0 and mu_bar_1 = v_low / v_high.  The gap between
    delaying n+1 and n periods is affine in the belief, so mu_bar_{n+1} is
    its exact root g(0) / (g(0) - g(1)).  Stops when the last cutoff is
    within stop.proximity_to_one of 1, when the remaining interval is too
    close to 1 for float64 to resolve the root (see RESOLUTION_GUARD), when
    the gap does not turn positive before belief 1, or when stop.max_cutoffs
    entries have been produced.

    v_low = 0 short-circuits to the two-entry table (0, 0): every positive
    prior then delays at posterior 0 forever on the low-type path.
    """
    if p.v_low == 0.0:
        return CutoffTable(p, (0.0, 0.0), HorizonReason.REACHED_ONE)

    d = p.delta
    cuts = [0.0, mu_bar_1(p)]
    alphas = [0.0, mu_bar_1(p)]
    guard = RESOLUTION_GUARD * (1.0 - d)

    while True:
        last = cuts[-1]
        if last >= 1.0 - stop.proximity_to_one or 1.0 - last < guard:
            reason = HorizonReason.REACHED_ONE
            break
        if len(cuts) >= stop.max_cutoffs:
            reason = HorizonReason.MAX_ITERATIONS
            break

        n = len(cuts) - 1
        g_last = _gap(p, last, cuts, alphas, n)
        if g_last >= 0.0:
            raise RuntimeError(f"indifference gap not negative at cutoff {n} (got {g_last})")
        g0, g1 = _gap(p, 0.0, cuts, alphas, n), _gap(p, 1.0, cuts, alphas, n)
        root = g0 / (g0 - g1) if g1 > 0.0 else 1.0
        if root >= 1.0:
            # no sign change before belief 1 (to float precision): no further cutoff
            reason = HorizonReason.REACHED_ONE
            break
        alphas.append(_alpha_step(d, root, last, alphas[-1]))
        cuts.append(root)

    return CutoffTable(p, tuple(cuts), reason)
