import contextlib
import csv
import io
import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from duropoly import cli, cutoffs, sim
from duropoly.cli import main

from helpers import SOLVE_CASES, oracle_csv, solve_into


def run(*args):
    return main([str(a) for a in args])


def test_solve_writes_artifacts(tmp_path, capsys):
    code = run("solve", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 0.3, "--out", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "n=0" in out and "price 1" in out and "revenue 1" in out
    for name in ("cutoffs.csv", "cutoffs.json", "mechanism.json", "value_table.csv"):
        assert (tmp_path / name).exists()


def test_solve_artifacts_round_trip(tmp_path):
    # value_table.csv reads back to eval_R at every grid point; the cutoff and
    # mechanism files have round trips of their own in test_cutoffs and
    # test_mechanism
    from duropoly import MarketParams, compute_cutoffs, eval_R

    for i, (v_low, v_high, delta, mu0, _) in enumerate(SOLVE_CASES):
        out = tmp_path / str(i)
        solve_into(out, v_low, v_high, delta, mu0)
        assert sorted(p.name for p in out.iterdir()) == [
            "cutoffs.csv", "cutoffs.json", "mechanism.json", "value_table.csv"]
        table = compute_cutoffs(MarketParams(v_low, v_high, delta))
        with open(out / "value_table.csv", newline="") as fh:
            vrows = list(csv.DictReader(fh))
        assert [float(r["mu_prime"]) for r in vrows] == list(np.linspace(0.0, 1.0, 101))
        for r in vrows:
            assert float(r["mu0"]) == mu0
            assert float(r["R"]) == eval_R(table, float(r["mu_prime"]), mu0)


def test_solve_degenerate_summary(tmp_path, capsys):
    code = run("solve", "--v-low", 0, "--v-high", 1, "--delta", 0.9,
               "--mu0", 0.3, "--out", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "revenue 0.3" in out and "price 1" in out and "rent 0" in out


def test_solve_huge_scale(tmp_path, capsys):
    # the first cutoff is 1e-300; the posted-price check needs its class
    code = run("solve", "--v-low", 1, "--v-high", 1e300, "--delta", 0.5,
               "--mu0", 0.5, "--out", tmp_path)
    assert code == 0
    assert "class n=" in capsys.readouterr().out


def test_invalid_params_exit_2(tmp_path, capsys):
    assert run("solve", "--v-low", 2, "--v-high", 1, "--delta", 0.8,
               "--mu0", 0.3, "--out", tmp_path) == 2
    assert run("solve", "--v-low", 1, "--v-high", 2, "--delta", 1.5,
               "--mu0", 0.3, "--out", tmp_path) == 2
    assert run("solve", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--out", tmp_path) == 2  # missing mu0
    assert run("solve", "--v-low", 1, "--v-high", "inf", "--delta", 0.8,
               "--mu0", 0.3, "--out", tmp_path) == 2
    # v_low / v_high rounds to 0, and a subnormal ratio whose chain underflows
    assert run("solve", "--v-low", 1e-320, "--v-high", 1e300, "--delta", 0.5,
               "--mu0", 0.5, "--out", tmp_path) == 2
    assert run("solve", "--v-low", 1e-320, "--v-high", 1, "--delta", 0.9999,
               "--mu0", 0.5, "--out", tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6 and all(line.startswith("error:") for line in err)
    assert all("v_low/v_high = 1e-320/" in line for line in err[-2:])


def _in_domain(command, v_low, v_high, delta, mu0):
    """The CLI's input rules for the four market flags, written out apart
    from the code that enforces them."""
    if not all(math.isfinite(x) for x in (v_low, v_high, delta, mu0)):
        return False
    # beliefs within 1e-12 of [0, 1] clamp to it; solve and simulate need mu0 < 1
    prior_ok = -1e-12 <= mu0 <= 1.0 + 1e-12 and (command in ("verify", "sweep") or mu0 < 1.0)
    if not (0.0 <= v_low < v_high and 0.0 < delta < 1.0 and prior_ok):
        return False
    return v_low == 0.0 or v_low / v_high > 0.0  # the ratio must not round to 0


def _flag(*in_domain):
    # any float at all, or one from a range that mostly lies in the domain
    return st.one_of(st.floats(), *(st.floats(lo, hi) for lo, hi in in_domain))


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["solve", "verify", "simulate", "sweep"]),
    v_low=_flag((0.0, 1.0), (5e-324, 1e-300)),
    v_high=_flag((2.0, 10.0), (1e10, 1e308)),
    delta=_flag((0.0, 1.0)),
    mu0=_flag((0.0, 1.0)),
)
@example(command="solve", v_low=1e-320, v_high=1e300, delta=0.5, mu0=0.5)
def test_out_of_domain_flags_exit_2(tmp_path_factory, command, v_low, v_high, delta, mu0):
    # non-finite, out-of-range or underflowing market flags: exit 2 with one
    # error line, never a verification failure or a traceback
    assume(not _in_domain(command, v_low, v_high, delta, mu0))
    out = tmp_path_factory.getbasetemp() / "out-of-domain"
    argv = [command, f"--v-low={v_low!r}", f"--v-high={v_high!r}", f"--delta={delta!r}",
            f"--mu0={mu0!r}", "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("args", [
    ("solve", "--v-low", 1e-100, "--v-high", 1, "--delta", 0.999, "--mu0", 0.5),
    ("solve", "--v-low", 2.69e-318, "--v-high", 1e-300, "--delta", 0.9999986, "--mu0", 0.5),
    ("simulate", "--v-low", 0.001, "--v-high", 1, "--delta", 0.999, "--mu0", 0.9999999,
     "--paths", 2000),
    ("verify", "--v-low", 1e-100, "--v-high", 1, "--delta", 0.999, "--mu0", 0.5, "--grid", 101),
    ("sweep", "--v-low", 1e-100, "--v-high", 1, "--delta", 0.999, "--mu0", 0.5,
     "--grid", 21, "--sweep-paths", 20),
    # class 13,069: every path is played to its trade, with no horizon
    ("simulate", "--v-low", 0.001, "--v-high", 1, "--delta", 0.99999999, "--mu0", 0.999999,
     "--paths", 3000),
])
def test_long_cutoff_chains_run(tmp_path, args):
    # chains of hundreds to thousands of cutoffs, each run to belief 1
    assert run(*args, "--out", tmp_path) == 0
    if args[0] == "solve":
        p = dict(zip(args[1::2], args[2::2]))
        cuts = json.loads((tmp_path / "cutoffs.json").read_text())["cutoffs"]
        assert len(cuts) > 200 and all(a < b for a, b in zip(cuts, cuts[1:]))
        mech = json.loads((tmp_path / "mechanism.json").read_text())
        v_high, v_low = p["--v-high"], p["--v-low"]
        rent = p["--delta"] ** mech["n"] * (v_high - v_low)
        gap = (v_high - mech["posted_price"]["price"]) - rent
        assert abs(gap) <= 1e-12 * v_high


def test_chain_longer_than_max_cutoffs_exit_2(tmp_path, capsys, monkeypatch):
    # (1e-100, 1, 0.999) needs 705 cutoffs
    monkeypatch.setattr(cutoffs, "MAX_CUTOFFS", 50)
    code = run("solve", "--v-low", 1e-100, "--v-high", 1, "--delta", 0.999,
               "--mu0", 0.5, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "v_low/v_high = 1e-100" in err[0]


def test_verify_passes(tmp_path):
    code = run("verify", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 0.5, "--grid", 301, "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["failures"] == []
    assert report["n_priors"] == 101
    assert report["max_gap"] < 1e-8 * 2.0
    assert len(report["priors"]) == report["n_priors"]
    assert max(r["worst_gap"] for r in report["priors"]) == report["max_gap"]


def test_verify_failures_report_witness_gain(tmp_path, monkeypatch):
    # a misplaced cutoff: each failing prior records the bound and what its
    # witness split really gains, which lies between 0 and the bound
    from duropoly import CutoffTable, MarketParams, compute_cutoffs, deviation_scan

    table = compute_cutoffs(MarketParams(1.0, 2.0, 0.8))
    cuts = list(table.cutoffs)
    cuts[2] += 0.01
    bad = CutoffTable(table.params, tuple(cuts))
    monkeypatch.setattr(cli, "compute_cutoffs", lambda params: bad)
    code = run("verify", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 0.5, "--out", tmp_path)
    assert code == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    deviations = [f for f in report["failures"] if f["kind"] == "deviation"]
    assert deviations
    for f in deviations:
        assert list(f) == ["prior", "gap", "witness_gain", "kind"]
        assert 1e-4 < f["witness_gain"] <= f["gap"]
        assert f["witness_gain"] == deviation_scan(bad, f["prior"]).witness_gain


def test_verify_small_grid_exit_2(tmp_path, capsys):
    code = run("verify", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 0.5, "--grid", 50, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("args", [
    ("sweep", "--mu0", 0.5, "--sweep-paths", 0),
    ("sweep", "--mu0", 0.5, "--sweep-paths", -3),
    ("simulate", "--mu0", 0.5, "--seed", -1),
    ("solve", "--mu0", 1),
    ("simulate", "--mu0", 1),
    ("solve", "--mu0", 1.5),
])
def test_bad_mc_and_prior_input_exit_2(tmp_path, capsys, args):
    code = run(*args, "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_prior_1_allowed_where_mu0_is_unused(tmp_path):
    # verify and sweep scan their own priors; mu0 = 1 is only validated
    assert run("verify", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 1, "--grid", 101, "--out", tmp_path) == 0
    assert run("sweep", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 1, "--grid", 11, "--sweep-paths", 5, "--out", tmp_path) == 0


def test_simulate_fixed_high(tmp_path):
    code = run("simulate", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 0.6, "--paths", 2000, "--seed", 7,
               "--type-draw", "fixed_high", "--out", tmp_path)
    assert code == 0
    data = json.loads((tmp_path / "simulation.json").read_text())
    assert data["mean_rent_high"] == pytest.approx(0.8, abs=1e-12)
    assert data["n_paths"] == 2000


def test_simulate_paths_csv(tmp_path):
    from duropoly import MarketParams, compute_cutoffs, iter_paths

    # class 1, and a class-43 prior whose paths trade in many periods
    for i, (v_low, v_high, delta, mu0, n_paths) in enumerate(
        [(1, 2, 0.8, 0.6, 50), (1e-3, 1, 0.99, 0.97, 300)]
    ):
        out = tmp_path / str(i)
        code = run("simulate", "--v-low", v_low, "--v-high", v_high, "--delta", delta,
                   "--mu0", mu0, "--paths", n_paths, "--seed", 0, "--out", out,
                   "--paths-csv", tmp_path / f"paths{i}.csv")
        assert code == 0
        with open(tmp_path / f"paths{i}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n_paths
        # the CSV holds the paths the summary was computed from
        data = json.loads((out / "simulation.json").read_text())
        revenue = np.array([float(r["discounted_revenue"]) for r in rows])
        assert float(revenue.mean()) == data["mean_revenue"]

        table = compute_cutoffs(MarketParams(v_low, v_high, delta))
        for j, (r, rec) in enumerate(zip(rows, iter_paths(table, mu0, "prior", n_paths, 0))):
            assert int(r["path"]) == j
            assert r["buyer_type"] == rec.buyer_type
            assert r["trade_period"] == ("" if rec.trade_period is None else str(rec.trade_period))
            assert float(r["discounted_revenue"]) == rec.discounted_revenue
            assert float(r["discounted_buyer_payoff"]) == rec.discounted_buyer_payoff
        assert len({r["trade_period"] for r in rows}) > 1


def test_simulate_subnormal_ratio(tmp_path, capsys):
    # at v_low / v_high = 1e-310 the class-1 price sells in period 0 for sure
    code = run("simulate", "--v-low", 1e-310, "--v-high", 1, "--delta", 0.9,
               "--mu0", 2e-310, "--type-draw", "fixed_high", "--paths", 1000,
               "--out", tmp_path)
    assert code == 0
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "simulation.json").read_text())
    assert data["trade_time_histogram"] == {"0": 1000}


@pytest.mark.parametrize("n_paths", [1000, 20000])
def test_simulate_identical_revenues_exit_0(tmp_path, capsys, n_paths):
    # in class 0 every path pays v_low = 0.1: the pooled mean is off the
    # analytic revenue by rounding alone, and se is rounding noise above 0
    code = run("simulate", "--v-low", 0.1, "--v-high", 1, "--delta", 0.9, "--mu0", 0.05,
               "--paths", n_paths, "--out", tmp_path)
    assert code == 0
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "simulation.json").read_text())
    assert 0.0 < data["se_revenue"] < 1e-18


@pytest.mark.parametrize("mu0, shift, bound", [(0.05, 1e-12, "by more than 1.78e-15 (8 ulps of v_high)"),
                                               (0.6, 0.1, "(3 se)")], ids=["floor", "3se"])
def test_simulate_mean_off_analytic_exit_1(tmp_path, capsys, monkeypatch, mu0, shift, bound):
    # a benchmark off by more than rounding (identical revenues at prior
    # 0.05) or by more than 3 se (prior 0.6, se 5.6e-3) still fails the run,
    # and the message names the tolerance that was used
    true_revenue = cli.seller_revenue
    monkeypatch.setattr(cli, "seller_revenue", lambda table, m0: true_revenue(table, m0) + shift)
    code = run("simulate", "--v-low", 0.1, "--v-high", 1, "--delta", 0.9, "--mu0", mu0,
               "--paths", 1000, "--out", tmp_path)
    assert code == 1
    assert bound in capsys.readouterr().err


def test_sweep_full_surplus_bit_for_bit(tmp_path):
    code = run("sweep", "--v-low", 0, "--v-high", 1, "--delta", 0.9,
               "--mu0", 0.5, "--grid", 101, "--sweep-paths", 20,
               "--seed", 0, "--out", tmp_path)
    assert code == 0
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    grid = np.linspace(0.0, 1.0, 101)[:-1]
    assert len(rows) == len(grid)
    for r, m0 in zip(rows, grid):
        assert float(r["mu0"]) == m0
        assert float(r["analytic_revenue"]) == m0
        assert float(r["rent"]) == 0.0


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("market, grid", [
    ((1.0, 2.0, 0.8), 251),
    ((0.0, 1.0, 0.9), 201),  # prior 0 in class 0, every other prior in class 1
    ((1e-3, 1.0, 0.999), 101),  # about one prior per class
])
def test_sweep_matches_per_prior_calls(tmp_path, monkeypatch, market, grid, seed):
    # one kernel pass per delay class gives each prior's own monte_carlo,
    # seller_revenue and buyer_rent bit for bit, also when draw blocks split
    # the paths and prior chunks split a class
    from duropoly import MarketParams, buyer_rent, compute_cutoffs, monte_carlo, seller_revenue

    table = compute_cutoffs(MarketParams(*market))
    priors = np.linspace(0.0, 1.0, grid)[:-1].tolist()
    flags = dict(zip(("--v-low", "--v-high", "--delta"), market))
    for n_paths in (1, 200):
        want = [(m0, seller_revenue(table, m0),
                 monte_carlo(table, m0, "prior", n_paths, seed).mean_revenue,
                 buyer_rent(table, m0)) for m0 in priors]
        for blocks in ({}, {"DRAW_BLOCK_SIZE": 64, "PRIOR_BLOCK_SIZE": 3 * n_paths}):
            for name, value in blocks.items():
                monkeypatch.setattr(sim, name, value)
            out = tmp_path / f"{n_paths}-{len(blocks)}"
            assert run("sweep", *chain.from_iterable(flags.items()), "--mu0", 0.5,
                       "--grid", grid, "--sweep-paths", n_paths, "--seed", seed,
                       "--out", out) == 0
            monkeypatch.undo()
            with open(out / "sweep.csv", newline="") as fh:
                got = [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
            assert got == want, (n_paths, blocks)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1 - 2**-53, 0.1, 1 / 3, 2.0, 2.0**53]


@pytest.mark.parametrize("n_rows", [0, 1, cli.CSV_BLOCK - 1, cli.CSV_BLOCK, cli.CSV_BLOCK + 1])
def test_write_csv_matches_oracle(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    columns = [
        np.arange(n_rows) - 3,
        np.resize(np.array(["high", "low", ""], dtype=object), n_rows),
        np.resize(np.array(["", 0, 7, 12345], dtype=object), n_rows),
        np.resize(np.array(EDGE_FLOATS), n_rows),
        rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 301, n_rows),
    ]
    header = ["i", "label", "period", "edge", "wide"]
    path = tmp_path / "t.csv"
    cli._write_csv(path, header, f"%d,%s,%s,{cli.F17},{cli.F17}", columns)
    rows = zip(*(col.tolist() for col in columns))
    assert path.read_bytes() == oracle_csv(header, rows)
    # the same rows after a grid column one point longer, whose last point
    # is left out as sweep.csv leaves out prior 1: from _grid_text's cached
    # text up to CSV_BLOCK points, rendered with the other columns above
    grid = np.linspace(0.0, 1.0, n_rows + 1)[:n_rows]
    cli._write_csv(path, ["mu", *header], f"%d,%s,%s,{cli.F17},{cli.F17}", columns,
                   grid_n=n_rows + 1)
    rows = zip(grid.tolist(), *(col.tolist() for col in columns))
    assert path.read_bytes() == oracle_csv(["mu", *header], rows)


def test_grid_text_cache(tmp_path):
    # solve and sweep take the grid's text from one bounded cache: each file
    # matches the oracle whether the grid's text was formatted for it or reused
    from duropoly import MarketParams, buyer_rent, compute_cutoffs, eval_R, seller_revenue

    market = ("--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6)
    table = compute_cutoffs(MarketParams(1.0, 2.0, 0.8))
    cli._grid_text.cache_clear()
    for i, grid_n in enumerate((101, 1001, 2, 101)):
        out = tmp_path / str(i)
        assert run("solve", *market, "--grid", grid_n, "--out", out) == 0
        assert run("sweep", *market, "--grid", grid_n, "--sweep-paths", 3, "--out", out) == 0
        grid = np.linspace(0.0, 1.0, grid_n)
        values = eval_R(table, grid, 0.6).tolist()
        want = oracle_csv(["mu_prime", "mu0", "R"],
                          ((g, 0.6, r) for g, r in zip(grid.tolist(), values)))
        assert (out / "value_table.csv").read_bytes() == want, grid_n
        priors = grid[:-1]
        columns = [priors, seller_revenue(table, priors), sim.mean_revenues(table, priors, 3, 0),
                   buyer_rent(table, priors)]
        want = oracle_csv(["mu0", "analytic_revenue", "mc_revenue", "rent"],
                          zip(*(col.tolist() for col in columns)))
        assert (out / "sweep.csv").read_bytes() == want, grid_n
    info = cli._grid_text.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5, 3, 3)
    for grid_n in range(3, 4 + info.maxsize):
        assert run("solve", *market, "--grid", grid_n, "--out", tmp_path / "more") == 0
    info = cli._grid_text.cache_info()
    assert info.misses == 4 + info.maxsize
    assert info.currsize == info.maxsize
    # a grid longer than one block is rendered with the other columns, never kept
    grid_n = cli.CSV_BLOCK + 1
    assert run("solve", *market, "--grid", grid_n, "--out", tmp_path / "long") == 0
    assert cli._grid_text.cache_info()[:2] == info[:2]
    grid = np.linspace(0.0, 1.0, grid_n)
    want = oracle_csv(["mu_prime", "mu0", "R"],
                      ((g, 0.6, r) for g, r in zip(grid.tolist(), eval_R(table, grid, 0.6).tolist())))
    assert (tmp_path / "long" / "value_table.csv").read_bytes() == want


def test_json_artifacts_are_dumps_indent_2(tmp_path):
    # each JSON file is written in one call, with json.dumps' own bytes
    market = ("--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6, "--out", tmp_path)
    assert run("solve", *market) == 0
    assert run("verify", *market) == 0
    assert run("simulate", *market, "--paths", 1000) == 0
    for name in ("cutoffs.json", "mechanism.json", "verify_report.json", "simulation.json"):
        text = (tmp_path / name).read_bytes()
        assert text == json.dumps(json.loads(text), indent=2).encode("utf-8"), name


def _rerendered(path, kinds):
    """The oracle's CSV bytes of the file's own fields, parsed by column kind
    (an empty field stays empty)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(kinds) for row in rows)
    return oracle_csv(header, ([kind(f) if f else f for kind, f in zip(kinds, row)] for row in rows))


def test_csv_artifacts_match_oracle(tmp_path):
    market = ("--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6)
    full_surplus = ("--v-low", 0, "--v-high", 1, "--delta", 0.9, "--mu0", 0.5)
    path_kinds = (int, str, int, float, float)
    assert run("solve", *market, "--out", tmp_path / "solve") == 0
    assert run("simulate", *market, "--paths", 5000, "--out", tmp_path,
               "--paths-csv", tmp_path / "prior.csv") == 0
    assert run("simulate", *full_surplus, "--paths", 300, "--type-draw", "fixed_low",
               "--out", tmp_path, "--paths-csv", tmp_path / "low.csv") == 0
    # the paths file is rendered once per (buyer type, trade period) outcome:
    # a long class with dozens of outcomes, high types only, and v_low = 0
    # blank no-sale rows among period-0 sales
    assert run("simulate", "--v-low", 1e-3, "--v-high", 1, "--delta", 0.99, "--mu0", 0.97,
               "--paths", 2000, "--seed", 3, "--out", tmp_path,
               "--paths-csv", tmp_path / "long.csv") == 0
    assert run("simulate", "--v-low", 1, "--v-high", 2, "--delta", 0.99, "--mu0", 0.999,
               "--paths", 2000, "--type-draw", "fixed_high", "--out", tmp_path,
               "--paths-csv", tmp_path / "high.csv") == 0
    assert run("simulate", *full_surplus, "--paths", 300, "--out", tmp_path,
               "--paths-csv", tmp_path / "mixed.csv") == 0
    assert run("sweep", *full_surplus, "--grid", 101, "--sweep-paths", 20,
               "--out", tmp_path / "sweep") == 0
    files = [
        (tmp_path / "solve" / "cutoffs.csv", (int, float)),
        (tmp_path / "solve" / "value_table.csv", (float, float, float)),
        (tmp_path / "prior.csv", path_kinds),
        (tmp_path / "low.csv", path_kinds),
        (tmp_path / "long.csv", path_kinds),
        (tmp_path / "high.csv", path_kinds),
        (tmp_path / "mixed.csv", path_kinds),
        (tmp_path / "sweep" / "sweep.csv", (float,) * 4),
    ]
    for path, kinds in files:
        assert path.read_bytes() == _rerendered(path, kinds), path.name
    # with v_low = 0 the low type never trades: every trade period is blank
    with open(tmp_path / "low.csv", newline="") as fh:
        assert {r["trade_period"] for r in csv.DictReader(fh)} == {""}
    with open(tmp_path / "mixed.csv", newline="") as fh:
        mixed = {(r["buyer_type"], r["trade_period"]) for r in csv.DictReader(fh)}
    assert mixed == {("low", ""), ("high", "0")}
    with open(tmp_path / "long.csv", newline="") as fh:
        assert len({(r["buyer_type"], r["trade_period"]) for r in csv.DictReader(fh)}) > 20


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"v_low": 1.0, "v_high": 2.0, "delta": 0.8, "mu0": 0.3},
        "grid_n": 101,
        "seed": 5,
    }))
    out = tmp_path / "out"
    assert run("solve", "--config", cfg, "--mu0", 0.6, "--out", out) == 0
    mech = json.loads((out / "mechanism.json").read_text())
    assert mech["prior"] == 0.6  # flag beats config
    assert mech["n"] == 1
    # every main() call parses with one parser, into a namespace of its own
    assert cli._parser() is cli._parser()
    first = cli._parser().parse_args(["solve", "--mu0", "0.6"])
    second = cli._parser().parse_args(["verify", "--config", str(cfg)])
    assert (first.command, first.mu0, first.config) == ("solve", 0.6, None)
    assert (second.command, second.mu0) == ("verify", None)


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    params = {"v_low": 1.0, "v_high": 2.0, "delta": 0.8, "mu0": 0.3}
    bad = [
        "{not json",
        json.dumps([params]),  # not an object
        json.dumps({"params": {**params, "v_hgih": 2.0}}),  # unknown parameter
        json.dumps({"params": params, "grid": 101}),  # misspelled grid_n
        json.dumps({"params": params, "tolerances": {"deviation_gap": "tiny"}}),
        json.dumps({"params": {**params, "delta": "0.8"}}),
        json.dumps({"params": params, "seed": None}),
    ]
    for text in bad:
        cfg.write_text(text)
        assert run("solve", "--config", cfg, "--out", tmp_path) == 2, text
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), text


def test_unwritable_paths_csv_exit_2(tmp_path, capsys):
    # the target is opened before the simulation runs, so nothing is written
    code = run("simulate", "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6,
               "--paths", 100, "--out", tmp_path,
               "--paths-csv", tmp_path / "missing" / "paths.csv")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "simulation.json").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_oversize_grid_exit_2(tmp_path, capsys, command):
    # 10**15 float64 points is far past any address space: the allocation
    # fails at once, with nothing allocated
    code = run(command, "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6,
               "--grid", 10**15, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
