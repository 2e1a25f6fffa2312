import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from duropoly import MarketParams, cli, cutoffs, mechanism, sim, verify
from duropoly.cli import main

from helpers import SOLVE_CASES, misplaced_table, oracle_csv, solve_into


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
    # v_low / v_high rounds to 0
    assert run("solve", "--v-low", 1e-320, "--v-high", 1e300, "--delta", 0.5,
               "--mu0", 0.5, "--out", tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error:") for line in err)
    assert "v_low/v_high = 1e-320/" in err[-1]


def _in_domain(command, v_low, v_high, delta, mu0):
    """The CLI's input rules for the four market flags, written out apart
    from the code that enforces them."""
    if not all(math.isfinite(x) for x in (v_low, v_high, delta, mu0)):
        return False
    # a belief in [0, 1]; solve and simulate need mu0 < 1
    prior_ok = 0.0 <= mu0 <= 1.0 and (command in ("verify", "sweep") or mu0 < 1.0)
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
     "--grid", 21, "--paths", 20),
    # class 13,069: every path is played to its trade, with no horizon
    ("simulate", "--v-low", 0.001, "--v-high", 1, "--delta", 0.99999999, "--mu0", 0.999999,
     "--paths", 3000),
    # a subnormal ratio: 3,931 cutoffs, the chain run on odds scaled by 2^64
    ("solve", "--v-low", 1e-320, "--v-high", 1, "--delta", 0.9999, "--mu0", 0.5),
    # the top float prior, 1 - 2^-53, in the table's top class
    ("solve", "--v-low", 0.001, "--v-high", 1, "--delta", 0.999, "--mu0", 0.9999999999999999),
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


@pytest.mark.parametrize("v_low, v_high, delta", [(1.0, 2.0, 5e-324), (0.99999, 1.0, 1e-320)])
def test_subnormal_delta_ends_the_chain_after_class_1(tmp_path, v_low, v_high, delta):
    # delta (1 - r) underflows to 0, which means infinite next odds: the
    # chain ends after class 1, as it does where the division overflows
    market = ("--v-low", v_low, "--v-high", v_high, "--delta", delta, "--mu0", 0.5)
    for command in ("solve", "verify", "simulate", "sweep"):
        assert run(command, *market, "--out", tmp_path) == 0, command
    assert json.loads((tmp_path / "cutoffs.json").read_text())["cutoffs"] == [0.0, v_low / v_high]
    assert json.loads((tmp_path / "verify_report.json").read_text())["max_gap"] == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    ratio=st.one_of(st.just(0.0), st.floats(1e-3, 0.99)),
    delta=st.floats(5e-324, 0.999),
    mu0=st.floats(0.0, 1.0, exclude_max=True),
)
@example(ratio=0.5, delta=5e-324, mu0=0.5)
def test_in_domain_flags_run(tmp_path_factory, ratio, delta, mu0):
    # every market and prior of the domain solves, verifies and simulates:
    # exit 0, strictly increasing cutoffs (the table (0, 0) when v_low = 0),
    # the posted price v_high - delta^n dv (v_high when v_low = 0), and a
    # fixed high type's mean rent equal to delta^n dv.  Fixed types take no
    # 3-standard-error check, so no run fails by chance.
    v_high = 2.0
    v_low = ratio * v_high
    out = tmp_path_factory.mktemp("in-domain")
    market = [f"--v-low={v_low!r}", f"--v-high={v_high!r}", f"--delta={delta!r}",
              f"--mu0={mu0!r}", "--out", str(out)]
    assert main(["solve", *market, "--grid", "11"]) == 0
    cuts = json.loads((out / "cutoffs.json").read_text())["cutoffs"]
    assert cuts == [0.0, 0.0] if v_low == 0.0 else all(a < b for a, b in zip(cuts, cuts[1:]))
    mech = json.loads((out / "mechanism.json").read_text())
    rent = delta ** mech["n"] * (v_high - v_low) if v_low > 0.0 else 0.0
    assert abs(v_high - mech["posted_price"]["price"] - rent) <= 1e-12 * v_high
    assert main(["verify", *market, "--grid", "101"]) == 0
    assert main(["simulate", *market, "--type-draw", "fixed_high", "--paths", "50"]) == 0
    mean_rent = json.loads((out / "simulation.json").read_text())["mean_rent_high"]
    assert abs(mean_rent - rent) <= 1e-12 * v_high


def test_largest_prior_below_1_gets_its_class(tmp_path):
    # 1 - 2^-53 has odds 2^53 - 1, in class 15; a table that stopped on a
    # rounded belief put it in class 16, which no float prior reaches and
    # whose split gains 4.06e-3 on the equilibrium
    assert run("solve", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 0.9999999999999999, "--out", tmp_path) == 0
    assert json.loads((tmp_path / "mechanism.json").read_text())["n"] == 15


def test_chain_longer_than_max_cutoffs_exit_2(tmp_path, capsys, monkeypatch):
    # (1e-100, 1, 0.999) needs 705 cutoffs
    monkeypatch.setattr(cutoffs, "MAX_CUTOFFS", 50)
    code = run("solve", "--v-low", 1e-100, "--v-high", 1, "--delta", 0.999,
               "--mu0", 0.5, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "v_low/v_high = 1e-100" in err[0]


def test_delta_within_rounding_of_1_exit_2(tmp_path, capsys):
    # at ratio 0.5 the chain fails only because delta rounds against 1: the
    # message names both causes, not the ratio alone
    code = run("solve", "--v-low", 1, "--v-high", 2, "--delta", 0.9999999999999999,
               "--mu0", 0.5, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "delta = 0.9999999999999999" in err[0] and "delta too close to 1" in err[0]
    assert "ratio is too small" in err[0]


def test_class_1_price_on_v_low_exit_2(tmp_path, capsys):
    # a ratio within an ulp of 1 at delta 0.5: class 1's price rounds onto
    # v_low, and the message names that, not a ratio that is too small
    code = run("verify", "--v-low", 1, "--v-high", 1.0000000000000002, "--delta", 0.5,
               "--mu0", 0.5, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "class 1's price" in err[0] and "rounds onto v_low" in err[0]
    assert "delta = 0.5" in err[0]


def test_solve_at_subnormal_prior_writes_finite_mechanism(tmp_path):
    # at the class-2 prior 3e-310, (1 - m0) / m0 overflows; the high type's
    # device still holds finite weights summing to 1 (about 1/3 and 2/3), and
    # both binding constraints hold
    from duropoly import MarketParams, build_mechanism, check_binding_constraints, compute_cutoffs

    def no_constant(name):
        raise ValueError(f"mechanism.json holds {name}")

    code = run("solve", "--v-low", 1e-310, "--v-high", 1, "--delta", 0.9, "--mu0", 3e-310,
               "--out", tmp_path)
    assert code == 0
    mech = json.loads((tmp_path / "mechanism.json").read_text(), parse_constant=no_constant)
    weights = [w for _, w in mech["device"]["high"]]
    assert len(weights) == 2 and math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
    assert mech["posted_price"]["accept_prob_high"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    table = compute_cutoffs(MarketParams(1e-310, 1.0, 0.9))
    res = check_binding_constraints(build_mechanism(table, 3e-310), table)
    assert abs(res.participation_low) <= 1e-12 and abs(res.truthtelling_high) <= 1e-12


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
    from duropoly import MarketParams, compute_cutoffs, deviation_scan

    bad = misplaced_table(compute_cutoffs(MarketParams(1.0, 2.0, 0.8)), 2, 0.01)
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


def test_verify_reads_no_grid(tmp_path):
    # like simulate, verify takes --grid under the common rule and reads no grid
    market = ("verify", "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.5)
    assert run(*market, "--grid", 50, "--out", tmp_path) == 0
    assert run(*market, "--out", tmp_path / "default") == 0
    name = "verify_report.json"
    assert (tmp_path / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_solve_at_negative_zero_v_low_matches_zero(tmp_path):
    # v_low = -0.0 is the market v_low = 0: no artifact holds a -0
    market = ("--v-high", 1, "--delta", 0.9, "--mu0", 0.5)
    assert run("solve", "--v-low", "-0.0", *market, "--out", tmp_path / "neg") == 0
    assert run("solve", "--v-low", 0, *market, "--out", tmp_path / "pos") == 0
    for name in ("cutoffs.csv", "cutoffs.json", "mechanism.json", "value_table.csv"):
        assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "pos" / name).read_bytes(), name


@pytest.mark.parametrize("args", [
    ("sweep", "--mu0", 0.5, "--paths", 0),
    ("sweep", "--mu0", 0.5, "--paths", -3),
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


@pytest.mark.parametrize("flag, key, value, rule", [
    ("--grid", "grid_n", 1, "grid must be at least 2"),
    ("--paths", "mc_paths", 0, "paths must be at least 1"),
])
def test_count_below_its_floor_exit_2(tmp_path, capsys, flag, key, value, rule):
    # the message names the count and its floor, whether a flag or the config set it
    params = {"v_low": 1.0, "v_high": 2.0, "delta": 0.8, "mu0": 0.3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params, key: value}))
    market = ("--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.3)
    for args in ((*market, flag, value), ("--config", cfg)):
        assert run("simulate", *args, "--out", tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and rule in err[0], err


def test_prior_1_allowed_where_mu0_is_unused(tmp_path):
    # verify and sweep scan their own priors; mu0 = 1 is only validated
    assert run("verify", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 1, "--grid", 101, "--out", tmp_path) == 0
    assert run("sweep", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 1, "--grid", 11, "--paths", 5, "--out", tmp_path) == 0


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


@pytest.mark.parametrize("v_high, mu0, paths", [(1e304, 0.6, None), (1.7e308, 0.3, 2000),
                                                 (1.7e308, 0.6, 2000)])
def test_simulate_mean_finite_near_float_max(tmp_path, capsys, v_high, mu0, paths):
    # a sum of the paths' revenues passes the float64 maximum; their mean,
    # taken in units of v_high, does not (the default 100,000 paths at 1e304),
    # and neither does the analytic revenue it is checked against
    args = ["--paths", paths] if paths else []
    code = run("simulate", "--v-low", 1, "--v-high", v_high, "--delta", 0.8, "--mu0", mu0,
               *args, "--out", tmp_path)
    assert code == 0
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "simulation.json").read_text())
    for key in ("mean_revenue", "mean_rent_high", "analytic_revenue"):
        assert 0.0 < data[key] < v_high


def test_sweep_mean_finite_near_float_max(tmp_path):
    assert run("sweep", "--v-low", 1, "--v-high", 1e307, "--delta", 0.8, "--mu0", 0.5,
               "--grid", 11, "--out", tmp_path) == 0
    with open(tmp_path / "sweep.csv") as fh:
        mc = [float(r["mc_revenue"]) for r in csv.DictReader(fh)]
    assert len(mc) == 10 and all(0.0 <= x < 1e307 for x in mc) and max(mc) > 0.0


def test_sweep_full_surplus_bit_for_bit(tmp_path):
    code = run("sweep", "--v-low", 0, "--v-high", 1, "--delta", 0.9,
               "--mu0", 0.5, "--grid", 101, "--paths", 20,
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
        cfg = tmp_path / f"{n_paths}.json"
        cfg.write_text(json.dumps({"mc_paths": n_paths}))
        for blocks in ({}, {"DRAW_BLOCK_SIZE": 64, "PRIOR_BLOCK_SIZE": 3 * n_paths}):
            for name, value in blocks.items():
                monkeypatch.setattr(sim, name, value)
            out = tmp_path / f"{n_paths}-{len(blocks)}"
            # the count by flag, and for the blocked run by the config's mc_paths
            count = ("--config", cfg) if blocks else ("--paths", n_paths)
            assert run("sweep", *chain.from_iterable(flags.items()), "--mu0", 0.5,
                       "--grid", grid, *count, "--seed", seed, "--out", out) == 0
            monkeypatch.undo()
            with open(out / "sweep.csv", newline="") as fh:
                got = [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
            assert got == want, (n_paths, blocks)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    ratio=st.one_of(st.just(0.0), st.floats(1e-3, 0.99)),
    delta=st.floats(0.01, 0.999),
    seed=st.integers(0, 2**64),
    grid=st.integers(2, 21),
    n_paths=st.integers(1, 50),
)
@example(ratio=1e-3, delta=0.999, seed=0, grid=21, n_paths=50)  # 289 cutoffs
def test_sweep_rows_are_monte_carlo_means(tmp_path_factory, ratio, delta, seed, grid, n_paths):
    # through the CLI at random markets: exit 0, one row per prior, each
    # mc_revenue that prior's own monte_carlo mean bit for bit
    from duropoly import MarketParams, compute_cutoffs, monte_carlo

    v_high = 2.0  # a power of two: v_low / v_high is the drawn ratio exactly
    out = tmp_path_factory.getbasetemp() / "sweep-property"
    assert run("sweep", "--v-low", repr(ratio * v_high), "--v-high", v_high,
               "--delta", repr(delta), "--mu0", 0.5, "--grid", grid,
               "--paths", n_paths, "--seed", seed, "--out", out) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = compute_cutoffs(MarketParams(ratio * v_high, v_high, delta))
    priors = np.linspace(0.0, 1.0, grid)[:-1].tolist()
    assert [float(r["mu0"]) for r in rows] == priors
    assert [float(r["mc_revenue"]) for r in rows] == [
        monte_carlo(table, m0, "prior", n_paths, seed).mean_revenue for m0 in priors]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(bad=st.one_of(st.tuples(st.just("--paths"), st.integers(-(2**70), 0)),
                    st.tuples(st.just("--grid"), st.integers(-(2**70), 1))))
def test_sweep_bad_count_exit_2(tmp_path_factory, bad):
    # a sweep path count below 1 or a grid below 2: exit 2 with one error line
    flag, value = bad
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("sweep", "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.5,
                   flag, value, "--out", tmp_path_factory.getbasetemp() / "sweep-bad")
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


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
        assert run("sweep", *market, "--grid", grid_n, "--paths", 3, "--out", out) == 0
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


def test_failing_verify_report_is_dumps_indent_2(monkeypatch, tmp_path):
    # the failures list, deviation failures and a structure failure's nested
    # report, is walked item by item and still writes json.dumps' bytes
    from duropoly import MarketParams, compute_cutoffs

    bad = misplaced_table(compute_cutoffs(MarketParams(1.0, 2.0, 0.8)), 2, 0.01)
    monkeypatch.setattr(cli, "compute_cutoffs", lambda params: bad)
    assert run("verify", "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6,
               "--config", Path(__file__).parent / "golden_tight_gap.json", "--out", tmp_path) == 1
    text = (tmp_path / "verify_report.json").read_bytes()
    report = json.loads(text)
    kinds = [f["kind"] for f in report["failures"]]
    assert kinds[-1] == "structure" and kinds.count("deviation") == len(kinds) - 1 > 0
    structure = report["failures"][-1]["report"]
    assert list(structure) == ["cutoff_residuals_ok", "max_cutoff_residual"]
    assert structure["cutoff_residuals_ok"] is False
    assert text == json.dumps(report, indent=2).encode("utf-8")


_JSON_TEXT = st.text(st.one_of(st.sampled_from('%"[]{}\\,:\x1e\n'), st.characters()), max_size=6)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _JSON_TEXT,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**64 + 1, -(2**100),
                     "%", "%s", "%%", '"', "[{", "\x1e", "é€😀"]),
)


@st.composite
def _same_keyed_dicts(draw, values):
    """A list of dicts with one key list; at times its last dict has the
    keys in reverse order."""
    keys = draw(st.lists(_JSON_TEXT, unique=True, max_size=4))
    rows = draw(st.lists(st.lists(values, min_size=len(keys), max_size=len(keys)), max_size=5))
    dicts = [dict(zip(keys, row)) for row in rows]
    if dicts and draw(st.booleans()):
        dicts[-1] = dict(reversed(dicts[-1].items()))
    return dicts


_JSON_TREES = st.recursive(_JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(_JSON_TEXT, children, max_size=5),
    st.lists(st.dictionaries(_JSON_TEXT, children, max_size=3), max_size=4),  # ragged
    _same_keyed_dicts(_JSON_SCALARS),
    _same_keyed_dicts(children),
), max_leaves=20)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree=_JSON_TREES)
@example(tree={"a%s": [[], {}, (), [{}, {}], [1.5, -0.0, "%d"]], "": ({"%": math.nan},)})
@example(tree=[{"x": 1, "y": 2}, {"x": 3, "y": "\x1e"}, {"y": 4, "x": 5}])
def test_json_text_is_dumps_indent_2(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


_COLUMN_KEYS = st.one_of(st.sampled_from(["%", "%s", '"', "\x1e", "é€😀", ""]), _JSON_TEXT)
_COLUMN_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308]))


@st.composite
def _columns(draw):
    """A Columns table of float columns: no keys, or up to four, over 0, 1
    or several rows."""
    keys = draw(st.lists(_COLUMN_KEYS, unique=True, max_size=4))
    n = draw(st.sampled_from([0, 1, 2, 7]))
    cols = [draw(st.lists(_COLUMN_FLOATS, min_size=n, max_size=n)) for _ in keys]
    return cli.Columns(tuple(keys), tuple(np.array(c, dtype=float) for c in cols))


def _as_dicts(tree):
    """The tree with each Columns table as the list of dicts it stands for."""
    if isinstance(tree, cli.Columns):
        return [dict(zip(tree.keys, row)) for row in zip(*(c.tolist() for c in tree.columns))]
    if isinstance(tree, dict):
        return {k: _as_dicts(v) for k, v in tree.items()}
    return [_as_dicts(v) for v in tree] if isinstance(tree, (list, tuple)) else tree


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree=st.recursive(_columns(), lambda children: st.one_of(
    st.lists(st.one_of(children, _JSON_SCALARS), max_size=3),
    st.dictionaries(_JSON_TEXT, children, max_size=3),
), max_leaves=4))
@example(tree={"priors": cli.Columns(
    ("%s", '"', "\x1e", "é€😀"),
    tuple(np.array(c) for c in ([math.nan, 0.5], [math.inf, -math.inf], [-0.0, 5e-324],
                                [1.7e308, 1.0])))})
def test_json_text_of_columns_is_dumps_indent_2(tree):
    assert cli._json_text(tree) == json.dumps(_as_dicts(tree), indent=2)


@pytest.mark.parametrize("tree", [{1: 0}, {"a": {None: 0}}, [{2.5: 0}, {2.5: 1}],
                                  [{"a": 1}, {"a": 2, (1,): 3}]])
def test_json_text_rejects_non_str_keys(tree):
    with pytest.raises(TypeError):
        cli._json_text(tree)


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
    # rows written in blocks: 12,347 paths span three blocks, end off a
    # multiple of ten and have indices of one to five digits
    assert run("simulate", *market, "--paths", 12347, "--out", tmp_path,
               "--paths-csv", tmp_path / "seams.csv") == 0
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
    assert run("sweep", *full_surplus, "--grid", 101, "--paths", 20,
               "--out", tmp_path / "sweep") == 0
    files = [
        (tmp_path / "solve" / "cutoffs.csv", (int, float)),
        (tmp_path / "solve" / "value_table.csv", (float, float, float)),
        (tmp_path / "prior.csv", path_kinds),
        (tmp_path / "seams.csv", path_kinds),
        (tmp_path / "low.csv", path_kinds),
        (tmp_path / "long.csv", path_kinds),
        (tmp_path / "high.csv", path_kinds),
        (tmp_path / "mixed.csv", path_kinds),
        (tmp_path / "sweep" / "sweep.csv", (float,) * 4),
    ]
    for path, kinds in files:
        assert path.read_bytes() == _rerendered(path, kinds), path.name
    # the re-rendering reads each index back, so the indices are checked here
    with open(tmp_path / "seams.csv", newline="") as fh:
        assert [r["path"] for r in csv.DictReader(fh)] == [str(i) for i in range(12347)]
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


# a value of any JSON type but a number, or but a string
_NOT_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=5),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_NOT_STRING = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.lists(st.text(max_size=3), max_size=2))
# JSON writes these as NaN and +-Infinity, which json.load reads back
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# a JSON float is no integer, 11.0 included
_NOT_INT = st.one_of(_NOT_NUMBER, _NOT_FINITE, st.floats(allow_nan=False, allow_infinity=False))
_NOT_OBJECT = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=5), st.lists(st.integers(), max_size=2))
# one past the most float64 elements a numpy array can hold
_TOO_MANY = 2**60
_GOOD_CONFIG = {"params": {"v_low": 1.0, "v_high": 2.0, "delta": 0.8, "mu0": 0.3},
                "grid_n": 11, "mc_paths": 10, "seed": 0,
                "tolerances": {"deviation_gap": 1e-9}}
# every config key of a solve run and the values that break its rule, the
# rules written out here apart from the code that enforces them
_BAD_CONFIG_VALUES = {
    # an object of the four market keys only
    ("params",): st.one_of(_NOT_OBJECT, st.dictionaries(
        st.text(max_size=5).filter(lambda k: k not in cli.PARAM_KEYS), st.integers(),
        min_size=1, max_size=2).map(lambda extra: {**_GOOD_CONFIG["params"], **extra})),
    # a finite number in [0, v_high = 2)
    ("params", "v_low"): st.one_of(_NOT_NUMBER, _NOT_FINITE, st.floats(max_value=-5e-324),
                                   st.floats(min_value=2.0)),
    # a finite number above v_low = 1
    ("params", "v_high"): st.one_of(_NOT_NUMBER, _NOT_FINITE, st.floats(max_value=1.0)),
    # a number in (0, 1)
    ("params", "delta"): st.one_of(_NOT_NUMBER, _NOT_FINITE, st.floats(max_value=0.0),
                                   st.floats(min_value=1.0)),
    # a finite belief in [0, 1], and below 1 for solve
    ("params", "mu0"): st.one_of(_NOT_NUMBER, _NOT_FINITE, st.floats(max_value=-5e-324),
                                 st.floats(min_value=1.0)),
    # integers from 2, and from 1, each below 2^60
    ("grid_n",): st.one_of(_NOT_INT, st.integers(max_value=1), st.integers(min_value=_TOO_MANY)),
    ("mc_paths",): st.one_of(_NOT_INT, st.integers(max_value=0),
                             st.integers(min_value=_TOO_MANY)),
    # a non-negative integer
    ("seed",): st.one_of(_NOT_INT, st.integers(max_value=-1)),
    # an object of deviation_gap only, a positive finite number
    ("tolerances",): st.one_of(_NOT_OBJECT, st.just({"deviation_gap": 1e-9, "gap": 1e-9})),
    ("tolerances", "deviation_gap"): st.one_of(_NOT_NUMBER, _NOT_FINITE,
                                               st.floats(max_value=0.0)),
    ("output_dir",): _NOT_STRING,
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_BAD_CONFIG_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), _BAD_CONFIG_VALUES[key])))
@example((("params",), {**_GOOD_CONFIG["params"], "a\nb": 1}))  # a key's name stays on one line
@example((("params", "mu0"), -1e-13))  # no belief outside [0, 1] is clamped onto it
def test_bad_config_value_exit_2(case):
    # one config value of the wrong JSON type or against its key's rule:
    # exit 2 with one error line, before anything is written
    key, value = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = copy.deepcopy(_GOOD_CONFIG)
        cfg["output_dir"] = str(Path(tmp) / "out")
        (cfg[key[0]] if len(key) == 2 else cfg)[key[-1]] = value
        (Path(tmp) / "cfg.json").write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["solve", "--config", str(Path(tmp) / "cfg.json")])
        lines = err.getvalue().splitlines()
        assert code == 2, (key, value)
        assert len(lines) == 1 and lines[0].startswith("error:"), (key, value, lines)
        assert [p.name for p in Path(tmp).iterdir()] == ["cfg.json"], (key, value)


@pytest.mark.parametrize("value", [2**60, 2**63 - 1])
@pytest.mark.parametrize("command, flag, key", [
    ("solve", "--grid", "grid_n"), ("sweep", "--grid", "grid_n"),
    ("simulate", "--paths", "mc_paths"), ("sweep", "--paths", "mc_paths")])
def test_oversize_count_exit_2(tmp_path, capsys, command, flag, key, value):
    # no float64 array holds 2^60 elements: such a count is refused with one
    # line, by flag or by config, before any run starts or any file is written
    market = {"v_low": 1.0, "v_high": 2.0, "delta": 0.8, "mu0": 0.5}
    runs = [(*chain.from_iterable((f"--{k.replace('_', '-')}", v) for k, v in market.items()),
             flag, value)]
    if key is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": market, key: value}))
        runs.append(("--config", cfg))
    for args in runs:
        assert run(command, *args, "--out", tmp_path / "out") == 2, args
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "at most" in err[0], err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--v-low", "1", "--v-high", "2", "--delta", "0.8", "--mu0", "0.5", "--paths", "abc"],
    ["solve", "--v-low", "1", "--v-high", "2", "--delta", "0.8", "--mu0", "0.5", "--bogus", "1"],
    [],  # no subcommand
    # argparse reads a negative number in exponent form as an option
    ["solve", "--v-low", "-1e-5", "--v-high", "2", "--delta", "0.8", "--mu0", "0.5"],
    # sweep's per-prior count is --paths, as simulate's total is
    ["sweep", "--v-low", "1", "--v-high", "2", "--delta", "0.8", "--mu0", "0.5",
     "--sweep-paths", "20"],
])
def test_usage_errors_exit_2(capsys, argv):
    # a usage error is bad input: one error line and exit 2, not argparse's
    # usage text and SystemExit
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert captured.out == ""


def test_help_and_negative_exponent_forms(tmp_path, capsys):
    # --help still exits 0; a negative value in exponent form parses when
    # joined to its flag by "=", and then mu0 = -1e-13 breaks the belief rule
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0 and "--paths" in capsys.readouterr().out
    assert run("solve", "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0=-1e-13",
               "--grid", 11, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: belief -1e-13 lies outside [0, 1]"]
    assert not (tmp_path / "out").exists()


def test_unwritable_paths_csv_exit_2(tmp_path, capsys):
    # the target is opened before the simulation runs, so nothing is written
    code = run("simulate", "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6,
               "--paths", 100, "--out", tmp_path,
               "--paths-csv", tmp_path / "missing" / "paths.csv")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "simulation.json").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_oversize_grid_exit_2(tmp_path, capsys, command):
    # 10**15 float64 points is far past any address space: the allocation
    # fails at once, with nothing allocated
    code = run(command, "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6,
               "--grid", 10**15, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command, artifact", [
    ("solve", "cutoffs.csv"), ("verify", "verify_report.json"),
    ("simulate", "simulation.json"), ("sweep", "sweep.csv")])
def test_artifact_path_taken_by_directory_exit_2(tmp_path, capsys, command, artifact):
    # a directory squatting on the command's first artifact name: opening it
    # for writing raises IsADirectoryError, a bad input, not a failed check
    (tmp_path / artifact).mkdir()
    code = run(command, "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6,
               "--grid", 101, "--paths", 100, "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and artifact in err[0]


_MARKET = ("--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6)


def _posted_price_keys(tmp_path, monkeypatch):
    assert run("solve", *_MARKET, "--out", tmp_path) == 0
    return list(json.loads((tmp_path / "mechanism.json").read_text())["posted_price"])


def _structure_failure_keys(tmp_path, monkeypatch):
    bad = misplaced_table(cutoffs.compute_cutoffs(MarketParams(1.0, 2.0, 0.8)), 2, 0.01)
    monkeypatch.setattr(cli, "compute_cutoffs", lambda params: bad)
    assert run("verify", *_MARKET, "--out", tmp_path) == 1
    return list(json.loads((tmp_path / "verify_report.json").read_text())["failures"][-1]["report"])


# every result record at (1, 2, 0.8, mu0 0.6): how to build one, its fields
# in order, and, where an artifact writes the record as an object, its keys there
_RECORDS = {
    "Split": (lambda t: mechanism.equilibrium_split(t, 0.6),
              ("posterior_delay", "posterior_sale", "weight_delay", "weight_sale", "q_delay", "q_sale"),
              None),
    "Mechanism": (lambda t: mechanism.build_mechanism(t, 0.6),
                  ("prior", "n", "device", "trade_prob", "transfer"), None),
    "PostedPrice": (lambda t: mechanism.posted_price_view(mechanism.build_mechanism(t, 0.6), t),
                    ("price", "accept_prob_high", "reject_posterior"), _posted_price_keys),
    "ConstraintResiduals": (
        lambda t: mechanism.check_binding_constraints(mechanism.build_mechanism(t, 0.6), t),
        ("participation_low", "truthtelling_high"), None),
    "PathStep": (lambda t: sim.simulate_path(t, 0.6, "low", np.random.default_rng(0).random).steps[0],
                 ("period", "belief", "price", "buyer_type", "action"), None),
    "PathRecord": (lambda t: sim.simulate_path(t, 0.6, "low", np.random.default_rng(0).random),
                   ("steps", "trade_period", "discounted_revenue", "discounted_buyer_payoff",
                    "buyer_type"), None),
    "PathArrays": (lambda t: sim.monte_carlo(t, 0.6, "prior", 100, 0).paths,
                   ("is_high", "trade_period", "revenue", "payoff"), None),
    "EnvelopePoint": (lambda t: verify.concave_envelope([(0.0, 0.0), (1.0, 1.0)])[0],
                      ("mu", "raw", "envelope"), None),
    "DeviationReport": (lambda t: verify.deviation_scan(t, 0.6),
                        ("prior", "best_deviation_value", "equilibrium_value", "worst_gap",
                         "witness_gain", "witness", "tolerance"), None),
    "StructureReport": (lambda t: verify.structure_checks(misplaced_table(t, 2, 0.01)),
                        ("cutoff_residuals_ok", "max_cutoff_residual"), _structure_failure_keys),
    "RunConfig": (lambda t: cli._build_config(cli._parser().parse_args(["solve", *map(str, _MARKET)])),
                  ("params", "mu0", "grid_n", "mc_paths", "seed", "deviation_gap", "output_dir"),
                  None),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_result_records_are_named_tuples(table08, tmp_path, monkeypatch, name):
    # a record that is only its fields: immutable, rebuilt from its dict,
    # its fields in declared order, and, where an artifact writes it, the
    # artifact's keys are its fields
    build, fields, artifact_keys = _RECORDS[name]
    record = build(table08)
    assert type(record).__name__ == name
    assert list(record._asdict()) == list(fields)
    rebuilt = type(record)(**record._asdict())
    assert type(rebuilt) is type(record) and rebuilt == record
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    if artifact_keys is not None:
        assert artifact_keys(tmp_path, monkeypatch) == list(fields)


def test_cli_import_loads_only_the_package():
    # start-up is most of a short command: after numpy and the standard
    # modules the package imports, importing the CLI loads the package alone
    code = ("import sys, numpy, argparse, dataclasses, functools, itertools, json, math, "
            "operator, pathlib, typing, __future__\n"
            "before = set(sys.modules)\n"
            "import duropoly.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(cli.__file__).resolve().parents[1])
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "duropoly.cli" in added
    assert [m for m in added if m != "duropoly" and not m.startswith("duropoly.")] == []
