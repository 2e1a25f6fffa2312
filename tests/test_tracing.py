"""The benchmark's tracer wraps package functions by name and signature, and
its checks read the CLI's files; a renamed or re-signatured function or a
changed file format must fail here, not only under perfbench/run.py."""
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from duropoly import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their defining module
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_simulate(tmp_path):
    tracer = _load("tracing").Tracer()
    tracer.begin_pass(0)
    tracer.job = "0:0"  # "<pass>:<job index>", as the benchmark runner sets it
    with tracer.installed():
        code = cli.main(["simulate", "--v-low", "1", "--v-high", "2", "--delta", "0.8",
                         "--mu0", "0.6", "--paths", "100", "--out", str(tmp_path)])
    assert code == 0
    assert tracer.pass_metrics()[0]["sim.monte_carlo.calls"] == 1


def test_tracer_binds_array_calls(tmp_path):
    # sweep and verify pass whole prior arrays through the traced functions:
    # the sweep plays its priors by class, with no monte_carlo call, and
    # verify checks the chain with no equilibrium_split call
    tracer = _load("tracing").Tracer()
    market = ["--v-low", "1", "--v-high", "2", "--delta", "0.8", "--mu0", "0.6"]
    jobs = [["sweep", *market, "--grid", "251"], ["verify", *market, "--grid", "1001"]]
    for index, argv in enumerate(jobs):
        tracer.begin_pass(index)
        tracer.job = f"{index}:0"
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    sweep, verify = (tracer.pass_metrics()[i] for i in range(2))
    assert sweep["sim.monte_carlo.calls"] == 0
    assert sweep["value.seller_revenue.calls"] == 1 and sweep["value.buyer_rent.calls"] == 1
    assert verify["mechanism.equilibrium_split.calls"] == 0
    assert verify["verify.structure_checks.calls"] == 1


@pytest.mark.parametrize("mu0", ["0.6", "0.3"])
def test_solve_reads_the_reject_posterior_by_class(tmp_path, mu0):
    # the mechanism prices its reject posterior by class, with no buyer_rent
    # call or belief check: at class 1 (mu0 0.6) and class 0 (mu0 0.3) alike,
    # solve's one buyer_rent call is the rent it prints
    tracer = _load("tracing").Tracer()
    tracer.begin_pass(0)
    tracer.job = "0:0"
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", "--v-low", "1", "--v-high", "2", "--delta", "0.8",
                         "--mu0", mu0, "--out", str(tmp_path)]) == 0
    metrics = tracer.pass_metrics()[0]
    assert metrics["value.buyer_rent.calls"] == 1
    assert metrics["core.belief.calls"] == 5


def test_workload_jobs_pass_their_checks(tmp_path):
    workloads = _load("workloads")
    jobs = {name: workloads.build(name, workloads.DEFAULT_SEED) for name in workloads.WORKLOADS}
    firsts = [job_list[0] for job_list in jobs.values()]
    # and the job whose check reads the --paths-csv file
    firsts += [job for job in jobs["simulate-mc"] if job.extra["paths_csv"]]
    for i, job in enumerate(firsts):
        out = tmp_path / str(i)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(job.command(out))
        assert job.check(job, out, code, stdout.getvalue()) > 0, job.key
