"""Self-test of the benchmark on tiny symmetric and nonsymmetric problems.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("selftest-poisson2d", "selftest-advection2d")


def run(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """Two runs of each tiny workload, untraced and traced, on two seeds."""
    return {(w, t, s): run(w, t, s) for w in TINY for t in (0, 1) for s in (0, 1)}


def test_every_run_emits_the_declared_fields(results):
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for (_, trace, _), r in results.items():
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert {k: m["unit"] for k, m in r["metrics"].items()} == declared[trace]


def test_self_times_add_up_to_setup_and_solve(results):
    setup_metrics = set(worker.SETUP_SPANS.values())
    solve_metrics = set(worker.SOLVE_SPANS.values())
    for (_, trace, _), r in results.items():
        if not trace:
            continue
        m = {k: v["value"] for k, v in r["metrics"].items()}
        assert sum(m[k] for k in setup_metrics) == pytest.approx(m["trace.setup_s"], rel=1e-9)
        assert sum(m[k] for k in solve_metrics) == pytest.approx(m["trace.solve_s"], rel=1e-9)


def test_counts_repeat_exactly(results):
    for w in TINY:
        for trace in (0, 1):
            a, b = results[(w, trace, 0)], results[(w, trace, 1)]
            counts = [k for k, m in a["metrics"].items() if m["unit"] == "count"]
            assert counts
            for k in counts:
                assert a["metrics"][k]["value"] == b["metrics"][k]["value"], (w, k)


def test_paths_take_their_own_layers(results):
    sym = results[("selftest-poisson2d", 1, 0)]["metrics"]
    nonsym = results[("selftest-advection2d", 1, 0)]["metrics"]
    assert sym["spectral.gevp_calls"]["value"] > 0 and sym["spectral.svd_calls"]["value"] == 0
    assert nonsym["spectral.gevp_calls"]["value"] == 0 and nonsym["spectral.svd_calls"]["value"] > 0


def test_inexact_solution_counts_as_failed(monkeypatch):
    wl = worker.WORKLOADS["selftest-poisson2d"]
    matrix, rhs = worker.make_inputs(wl, 0)
    pcg = worker.krylov.pcg

    def perturbed(*args, **kwargs):
        x, report = pcg(*args, **kwargs)
        return x * (1 + 1e-6), report

    monkeypatch.setattr(worker.krylov, "pcg", perturbed)
    sample = worker.run_rep(wl, matrix, rhs, tracing.NullTracer())
    assert sample["failed"] == sample["attempted"] == 1
    assert sample["true_relres_max"] > worker.TOL


def test_missing_function_records_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("tlschwarz.subdomain", "no_such_function", "subdomain.gone", None),
        ("tlschwarz.no_such_module", "f", "nowhere.gone", None),
        ("tlschwarz.precond", "NoSuchClass.apply", "precond.gone", None),
    ))
    import tlschwarz.precond as precond_mod
    original = precond_mod.partition_graph
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    assert precond_mod.partition_graph is not original
    tracer.uninstall()
    assert precond_mod.partition_graph is original
    assert "subdomain.gone" not in tracer.self_times()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "poisson3d-m16-N16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
