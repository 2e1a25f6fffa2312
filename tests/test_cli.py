import csv
import json

import numpy as np
import pytest

from duropoly import cutoffs
from duropoly.cli import main


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
    run("solve", "--v-low", 1, "--v-high", 2, "--delta", 0.8, "--mu0", 0.6,
        "--grid", 101, "--out", tmp_path)
    from duropoly import MarketParams, build_mechanism, compute_cutoffs, eval_R, posted_price_view

    table = compute_cutoffs(MarketParams(1, 2, 0.8))
    with open(tmp_path / "cutoffs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(float(r["mu_bar"]) for r in rows) == table.cutoffs

    mech = json.loads((tmp_path / "mechanism.json").read_text())
    built = build_mechanism(table, 0.6)
    want = built.to_json(posted_price_view(built, table))
    assert mech == want

    with open(tmp_path / "value_table.csv") as fh:
        vrows = list(csv.DictReader(fh))
    assert len(vrows) == 101
    for r in vrows[::10]:
        assert float(r["R"]) == eval_R(table, float(r["mu_prime"]), 0.6)


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
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("error:") for line in err)


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
    csv_path = tmp_path / "paths.csv"
    code = run("simulate", "--v-low", 1, "--v-high", 2, "--delta", 0.8,
               "--mu0", 0.6, "--paths", 50, "--seed", 0, "--out", tmp_path,
               "--paths-csv", csv_path)
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    # the CSV holds the paths the summary was computed from
    data = json.loads((tmp_path / "simulation.json").read_text())
    revenue = np.array([float(r["discounted_revenue"]) for r in rows])
    assert float(revenue.mean()) == data["mean_revenue"]

    from duropoly import MarketParams, compute_cutoffs, iter_paths

    table = compute_cutoffs(MarketParams(1, 2, 0.8))
    for i, (r, rec) in enumerate(zip(rows, iter_paths(table, 0.6, "prior", 50, seed=0))):
        assert int(r["path"]) == i
        assert r["buyer_type"] == rec.buyer_type
        assert r["trade_period"] == ("" if rec.trade_period is None else str(rec.trade_period))
        assert float(r["discounted_revenue"]) == rec.discounted_revenue
        assert float(r["discounted_buyer_payoff"]) == rec.discounted_buyer_payoff


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
