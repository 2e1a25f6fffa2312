"""Command-line front end: solve, verify, simulate, and sweep subcommands.

Exit codes: 0 all checks pass, 1 a verification or acceptance check failed,
2 invalid configuration or usage, reported in one `error:` line.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import MarketParams, belief
from .cutoffs import CutoffTable, compute_cutoffs
from .mechanism import build_mechanism, posted_price_view
from .sim import mean_revenues, monte_carlo
from .value import buyer_rent, eval_R, seller_revenue
from .verify import deviation_scan, structure_checks

SWEEP_DEFAULT_PATHS = 200
VERIFY_N_PRIORS = 101
PARAM_KEYS = ("v_low", "v_high", "delta", "mu0")
CONFIG_KEYS = ("params", "grid_n", "mc_paths", "seed", "tolerances", "output_dir")
TOLERANCE_KEYS = ("deviation_gap",)
# CSV text of a float: 17 significant digits read back to the same float64
F17 = "%.17g"
CSV_BLOCK = 4096  # rows a CSV block holds: one % call in _write_csv
GRID_TEXT_SIZES = 4  # grid sizes whose text _grid_text keeps (each of at most CSV_BLOCK points)
# ulps of v_high the 3-standard-error check always allows: where every path
# pays the same price, the mean is off it by rounding alone (at most 4 ulps
# over 840 random class-0 runs of 1,000 to 100,000 paths and 3 ulps over 600
# of 100,000 to 16,777,219) and se is rounding noise, not 0
MC_ROUNDING_ULPS = 8


class RunConfig(NamedTuple):
    """One run's resolved settings; deviation_gap None is deviation_scan's default tolerance."""
    params: MarketParams
    mu0: float
    grid_n: int = 1001
    mc_paths: int = 100_000
    seed: int = 0
    deviation_gap: float | None = None
    output_dir: Path = Path(".")


def _write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(data))


def _json_text(data) -> str:
    """json.dumps(data, indent=2), byte for byte, for trees with str keys
    (any other key raises TypeError).

    json.dumps with an indent runs the pure-Python encoder once per key and
    scalar.  Here only the containers are walked, into a %-template of the
    indented layout; every scalar goes into one list that one call of the
    C encoder renders, split on its item separator "\\x1e" (JSON escapes
    every control character, so no rendered scalar holds it).  A list of
    scalars, and a Columns table, are rendered from one row template rather
    than item by item."""
    template: list[str] = []
    scalars: list = []
    _walk(data, "\n", template, scalars)
    texts = _encode_scalars(scalars)[1:-1].split("\x1e") if scalars else ()
    return "".join(template) % tuple(texts)


def _walk(o, nl: str, template: list, scalars: list) -> None:
    """Add o's %-template to `template` and its scalars to `scalars`; `nl`
    is a newline and the indent of o's own line.  (A module function, not a
    closure: a closure that calls itself is a reference cycle, and would
    keep each tree's scalars alive until the cycle collector runs.)"""
    if not isinstance(o, _CONTAINERS):
        scalars.append(o)
        template.append("%s")
        return
    if not o:
        template.append("{}" if isinstance(o, dict) else "[]")
        return
    inner = nl + "  "
    if isinstance(o, dict):
        sep = "{"
        for key, value in o.items():
            template.append(f"{sep}{inner}{_json_key(key)}: ")
            _walk(value, inner, template, scalars)
            sep = ","
        template.append(nl + "}")
    elif (row := _row_template(o, inner, scalars)) is not None:
        template.append(f"[{inner}{(row + ',' + inner) * (len(o) - 1)}{row}{nl}]")
    else:
        sep = "["
        for item in o:
            template.append(sep + inner)
            _walk(item, inner, template, scalars)
            sep = ","
        template.append(nl + "]")


@dataclass(frozen=True)
class Columns:
    """A JSON list of flat objects held as columns: object i maps keys[j] to
    columns[j][i], the columns being equal-length 1-D arrays; with no keys
    the list is empty.  Not a tuple, which _json_text renders as an array."""
    keys: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


_CONTAINERS = (list, tuple, dict, Columns)
# the C encoder, which json.dumps uses only without an indent
_encode_scalars = json.JSONEncoder(separators=("\x1e", ": ")).encode


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
    return json.encoder.encode_basestring_ascii(key).replace("%", "%%")  # json.dumps(key)


def _flat(values) -> bool:
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _row_template(items, nl: str, scalars: list) -> str | None:
    """The %-template of one item of a non-empty list whose items are all
    scalars, or of a Columns table, its items' lines starting at `nl`; their
    scalars are added to `scalars` in order.  None, adding nothing, for any
    other list."""
    if isinstance(items, Columns):
        scalars.extend(_row_major(items.columns))
        inner = nl + "  "
        return "{" + ",".join(f"{inner}{_json_key(k)}: %s" for k in items.keys) + nl + "}"
    if _flat(items):
        scalars.extend(items)
        return "%s"
    return None


def _row_major(columns) -> list:
    """The entries of equal-length 1-D arrays as Python scalars, row by row
    (each column keeps its own type: ints stay ints)."""
    values = [None] * (len(columns) * len(columns[0]))
    for j, col in enumerate(columns):
        values[j::len(columns)] = col.tolist()
    return values


def _write_csv(path, header, row, columns, grid_n=None) -> None:
    """Write `header`, then line i renders the `row` %-template with the i-th
    entries of the equal-length 1-D `columns`, as csv.writer would (no field
    needs quoting; lines end in \r\n).  Each block of CSV_BLOCK rows is one
    % call, so no Python call is made per field.  With `grid_n`, line i
    starts with linspace(0, 1, grid_n)[i] and a comma; the columns may end
    before the grid does."""
    if grid_n is not None and grid_n > CSV_BLOCK:  # too long to keep: rendered with the rest
        columns = [np.linspace(0.0, 1.0, grid_n)[:len(columns[0])], *columns]
        row, grid_n = f"{F17},{row}", None
    line = row + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), CSV_BLOCK):
            values = _row_major([col[lo:lo + CSV_BLOCK] for col in columns])
            n_rows = len(values) // len(columns)
            if grid_n is None:
                lines = line * n_rows
            else:  # one block; the grid's lines past the columns' end keep their "\n" and go
                lines = _grid_text(grid_n).replace("\n", "," + line, n_rows)
                lines = lines[:lines.rfind("\r\n") + 2]
            fh.write(lines % tuple(values))


@functools.lru_cache(maxsize=GRID_TEXT_SIZES)
def _grid_text(grid_n: int) -> str:
    """linspace(0, 1, grid_n) as F17 text, each value ended by "\n".  Solve's
    value table and sweep's priors share it, so a process that writes them
    more than once at a grid of at most CSV_BLOCK points formats it once."""
    return ((F17 + "\n") * grid_n) % tuple(np.linspace(0.0, 1.0, grid_n).tolist())


def _number(name: str, value, kind=float):
    """A finite number from the config file (an integer when kind is int)."""
    ok = isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)
    if not ok or (kind is float and not math.isfinite(value)):
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"config {name} must be {what}, got {value!r}")
    return kind(value)


def _object(name: str, value, keys) -> dict:
    """A JSON object from the config file whose keys all lie in `keys`."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys in {name}: {', '.join(map(repr, unknown))}")
    return value


def _build_config(args) -> RunConfig:
    """Merge defaults, config file, and flags (flags win), and check the
    result against every run-setting rule."""
    raw: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = _object("the config", json.load(fh), CONFIG_KEYS)
    params = _object("params", raw.get("params", {}), PARAM_KEYS)
    pdict = {k: _number(k, v) for k, v in params.items()}
    param_flags = zip(PARAM_KEYS, (args.v_low, args.v_high, args.delta, args.mu0))
    pdict.update((k, flag) for k, flag in param_flags if flag is not None)
    counts = {k: _number(k, raw[k], int) for k in ("grid_n", "mc_paths", "seed") if k in raw}
    count_flags = (("grid_n", args.grid), ("mc_paths", args.paths), ("seed", args.seed))
    counts.update((k, flag) for k, flag in count_flags if flag is not None)
    if args.command == "sweep":  # mc_paths at each prior
        counts.setdefault("mc_paths", SWEEP_DEFAULT_PATHS)
    missing = [k for k in PARAM_KEYS if k not in pdict]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")
    mu0 = belief(pdict.pop("mu0"))
    if args.command in ("solve", "simulate") and mu0 == 1.0:
        raise ValueError(f"{args.command} needs a prior mu0 below 1")
    output_dir = args.out if args.out is not None else raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ValueError(f"config output_dir must be a string, got {output_dir!r}")
    tolerances = _object("tolerances", raw.get("tolerances", {}), TOLERANCE_KEYS)
    cfg = RunConfig(
        MarketParams(**pdict),
        mu0,
        deviation_gap=_number("deviation_gap", tolerances["deviation_gap"]) if tolerances else None,
        output_dir=Path(output_dir),
        **counts,
    )
    # the most float64 elements one numpy array can hold
    most = np.iinfo(np.intp).max // 8
    for name, count, least in (("grid", cfg.grid_n, 2), ("paths", cfg.mc_paths, 1)):
        if not least <= count <= most:
            raise ValueError(f"{name} must be at least {least} and at most {most}, got {count}")
    if cfg.deviation_gap is not None and cfg.deviation_gap <= 0:
        raise ValueError("tolerances must be positive")
    if cfg.seed < 0:
        raise ValueError(f"seed must be non-negative, got {cfg.seed}")
    return cfg


def cmd_solve(cfg: RunConfig, table: CutoffTable) -> int:
    out = cfg.output_dir
    cuts = table.cutoffs
    _write_csv(out / "cutoffs.csv", ["n", "mu_bar"], "%d," + F17, [np.arange(len(cuts)), cuts])
    _write_json(out / "cutoffs.json", {
        **asdict(table.params),
        "cutoffs": cuts.tolist(),
        "degenerate": table.degenerate,
    })

    mech = build_mechanism(table, cfg.mu0)
    view = posted_price_view(mech, table)
    # {posterior: value} dicts become [[posterior, value], ...]: JSON keys are strings
    _write_json(out / "mechanism.json", {
        "prior": mech.prior,
        "n": mech.n,
        "device": {report: list(dist.items()) for report, dist in mech.device.items()},
        "trade_prob": list(mech.trade_prob.items()),
        "transfer": list(mech.transfer.items()),
        "posted_price": view._asdict(),
    })

    grid = np.linspace(0.0, 1.0, cfg.grid_n)
    _write_csv(out / "value_table.csv", ["mu_prime", "mu0", "R"], f"{F17 % cfg.mu0},{F17}",
               [eval_R(table, grid, cfg.mu0)], grid_n=cfg.grid_n)

    print(
        f"prior {cfg.mu0:g}: class n={mech.n}, price {view.price:.6g}, "
        f"revenue {seller_revenue(table, cfg.mu0):.6g}, "
        f"rent {buyer_rent(table, cfg.mu0):.6g}"
    )
    return 0


def cmd_verify(cfg: RunConfig, table: CutoffTable) -> int:
    out = cfg.output_dir
    priors = np.linspace(0.01, 0.99, VERIFY_N_PRIORS)
    rep = deviation_scan(table, priors, tolerance=cfg.deviation_gap)
    failing = np.flatnonzero(~rep.passed)
    failures = [{"prior": prior, "gap": gap, "witness_gain": gain, "kind": "deviation"}
                for prior, gap, gain in zip(*(col[failing].tolist() for col in
                                              (rep.prior, rep.worst_gap, rep.witness_gain)))]
    max_gap = max(0.0, *rep.worst_gap.tolist())
    structure = structure_checks(table)
    if not structure.cutoff_residuals_ok:
        failures.append({"kind": "structure", "report": structure._asdict()})

    report = {
        "params": {**asdict(table.params), "mu0": cfg.mu0},
        "n_priors": len(priors),
        "max_gap": max_gap,
        "failures": failures,
        "priors": Columns(("prior", "worst_gap", "posterior_delay", "posterior_sale"),
                          (rep.prior, rep.worst_gap, rep.witness.posterior_delay,
                           rep.witness.posterior_sale)),
    }
    _write_json(out / "verify_report.json", report)
    print(f"verify: {len(priors)} priors, max gap {max_gap:.3e}, failures {len(failures)}")
    return 1 if failures else 0


def cmd_simulate(cfg: RunConfig, table: CutoffTable, type_draw: str, paths_csv: str | None) -> int:
    out = cfg.output_dir
    summary = monte_carlo(table, cfg.mu0, type_draw, cfg.mc_paths, cfg.seed)
    # the 3-standard-error check against the analytic value applies to pooled
    # revenue only; conditioning on one type changes the benchmark
    analytic = seller_revenue(table, cfg.mu0) if type_draw == "prior" else None

    payload = {
        "n_paths": summary.n_paths,
        "mean_revenue": summary.mean_revenue,
        "se_revenue": summary.se_revenue,
        "mean_rent_high": summary.mean_rent_high,
        "mean_rent_low": summary.mean_rent_low,
        "trade_time_histogram": {str(k): v for k, v in sorted(summary.trade_time_histogram.items())},
        "seed": summary.seed,
        "rng_algorithm": summary.rng_algorithm,
        "analytic_revenue": analytic,
    }
    _write_json(out / "simulation.json", payload)

    if paths_csv:
        paths = summary.paths
        # a path's revenue and payoff depend only on its buyer type and trade
        # period, so its row after the index is the text of its outcome code,
        # rendered once per code that occurs from one path of that code
        code = 2 * (paths.trade_period + 1) + paths.is_high
        some_path = np.empty(code.max() + 1, dtype=np.intp)
        some_path[code] = np.arange(len(code))
        text = np.empty(len(some_path), dtype=object)
        for c in np.flatnonzero(np.bincount(code)).tolist():
            i = some_path[c]
            text[c] = f",%s,%s,{F17},{F17}\r\n" % (
                ("low", "high")[c % 2], "" if c < 2 else c // 2 - 1,
                paths.revenue[i], paths.payoff[i])
        rows = text[code]
        # path i's index is the text of i // 10, empty below 10, then the
        # digit i % 10.  A block starts at a multiple of ten, so one % call
        # formats its prefixes, one per ten rows, and no row goes through %
        block = CSV_BLOCK - CSV_BLOCK % 10
        with open(paths_csv, "w", newline="", encoding="utf-8") as fh:
            fh.write("path,buyer_type,trade_period,discounted_revenue,discounted_buyer_payoff\r\n")
            for lo in range(0, len(rows), block):
                hi = min(lo + block, len(rows))
                tens = range(lo // 10, (hi + 9) // 10)
                prefixes = (("%d\n" * len(tens)) % tuple(tens)).split("\n")
                if lo == 0:
                    prefixes[0] = ""
                pieces = [None] * (3 * (hi - lo))  # (prefix, digit, outcome text) per row
                for d in range(min(10, hi - lo)):
                    k = len(range(d, hi - lo, 10))
                    pieces[3 * d::30] = prefixes[:k]
                    pieces[3 * d + 1::30] = [str(d)] * k
                pieces[2::3] = rows[lo:hi].tolist()
                fh.write("".join(pieces))

    print(
        f"simulate: {summary.n_paths} paths, mean revenue {summary.mean_revenue:.6g} "
        f"(se {summary.se_revenue:.2e})"
    )
    if analytic is not None and summary.se_revenue > 0.0:
        floor = MC_ROUNDING_ULPS * math.ulp(table.params.v_high)
        tolerance = max(3.0 * summary.se_revenue, floor)
        if abs(summary.mean_revenue - analytic) > tolerance:
            bound = "3 se" if tolerance > floor else f"{MC_ROUNDING_ULPS} ulps of v_high"
            print(f"simulate: mean off analytic {analytic:.6g} by more than {tolerance:.3g} ({bound})",
                  file=sys.stderr)
            return 1
    return 0


def cmd_sweep(cfg: RunConfig, table: CutoffTable) -> int:
    out = cfg.output_dir
    priors = np.linspace(0.0, 1.0, cfg.grid_n)[:-1]
    columns = [seller_revenue(table, priors),
               mean_revenues(table, priors, cfg.mc_paths, cfg.seed), buyer_rent(table, priors)]
    # the priors' text is the grid's but for its last line, mu0 = 1
    _write_csv(out / "sweep.csv", ["mu0", "analytic_revenue", "mc_revenue", "rent"],
               ",".join([F17] * 3), columns, grid_n=cfg.grid_n)
    print(f"sweep: {len(priors)} priors written to {out / 'sweep.csv'}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so that main
    reports them as one line and returns 2; its subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache  # built on the first main() call, then shared
def _parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--v-low", type=float, default=None)
    common.add_argument("--v-high", type=float, default=None)
    common.add_argument("--delta", type=float, default=None)
    common.add_argument("--mu0", type=float, default=None)
    common.add_argument(
        "--grid", type=int, default=None,
        help="points in solve's value table and sweep's priors (default 1001); "
             "verify, like simulate, reads no grid",
    )
    common.add_argument("--paths", type=int, default=None, help="Monte Carlo paths: simulate's total "
                        f"(default 100000), sweep's per prior (default {SWEEP_DEFAULT_PATHS}); "
                        "solve and verify check it and play none")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--out", type=str, default=None, help="output directory (default .)")

    parser = _Parser(prog="duropoly")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common])
    sub.add_parser("verify", parents=[common])
    psim = sub.add_parser("simulate", parents=[common])
    psim.add_argument("--type-draw", choices=["prior", "fixed_low", "fixed_high"], default="prior")
    psim.add_argument("--paths-csv", type=str, default=None, help="also write one row per path")
    sub.add_parser("sweep", parents=[common])
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _build_config(args)
        table = compute_cutoffs(cfg.params)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate" and args.paths_csv:
            open(args.paths_csv, "w").close()  # fail before simulating, not after
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            return cmd_solve(cfg, table)
        if args.command == "verify":
            return cmd_verify(cfg, table)
        if args.command == "simulate":
            return cmd_simulate(cfg, table, args.type_draw, args.paths_csv)
        if args.command == "sweep":
            return cmd_sweep(cfg, table)
    except MemoryError as exc:  # e.g. an oversize --grid
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an artifact path taken by a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
