"""The benchmark's tracer wraps package functions by name and signature; a
renamed or re-signatured function must fail here, not only under --trace 1."""
import importlib.util
from pathlib import Path

from duropoly import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_simulate(tmp_path):
    tracer = _load_tracing().Tracer()
    tracer.begin_pass(0)
    tracer.job = "0:0"  # "<pass>:<job index>", as the benchmark runner sets it
    with tracer.installed():
        code = cli.main(["simulate", "--v-low", "1", "--v-high", "2", "--delta", "0.8",
                         "--mu0", "0.6", "--paths", "100", "--out", str(tmp_path)])
    assert code == 0
    assert tracer.pass_metrics()[0]["sim.monte_carlo.calls"] == 1
