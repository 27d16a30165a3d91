"""Tests of the benchmark itself: seeded inputs, tracing, output names.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer names the benchmark promises to report (see BENCHMARK.json)
LAYER_NAMES = {
    "banded.solve_calls", "banded.solve_s", "banded.solve_rows", "factored.banded_solves_per_op",
    "banded.factor_calls", "banded.factor_s", "integration.factor_cache_hits", "integration.factor_cache_misses",
    "chebyshev.transform_calls", "chebyshev.transform_s", "chebyshev.transform_points", "chebyshev.eval_s",
    "factored.solve_chains_s", "factored.fit_boundary_s", "diffmat.endpoint_row_s",
    "diffmat.endpoint_row_cache_misses", "diffmat.build_calls", "diffmat.build_s", "diffmat.operator_matrix_s",
    "diffmat.dense_bytes", "piecewise.collocation_solve_s", "piecewise.collocation_n",
    "piecewise.interface_solve_s", "piecewise.assembly_self_s", "piecewise.sample_s",
    "banded.dense_solve_calls", "banded.dense_solve_s", "diagnostics.export_s", "diagnostics.svd_s",
    "diagnostics.svd_n",
}

# cheap ops of every workload; among them one that raises and one that fails its check
CHEAP_OPS = {
    "cold_layers": [Op("1a", (3e5, 16384)), Op("1e_linear", (1e5, 8192)), Op("upp", (2e4, 8192, False))],
    "warm_many_rhs": [Op("manufactured", ((0.5, -0.2, 0.1), (3.0, 11.0, 29.0), (0.1, 1.0, 2.0)))] * 2,
    "piecewise": [
        Op("table3_spectral", wl.TABLE3_ROWS[-1] + (1.0, 2.0)),
        Op("table3_diffmat", wl.TABLE3_ROWS[-1] + (1.5, 1.25)),
        Op("table4_row1", (32, 5.0)),
        Op("table4_seeded", (24, 4.5)),
    ],
    "diagnostics": [Op("fig2", ())],
}


def _first(name, seed, n=40):
    return list(islice(wl.WORKLOADS[name]().ops(seed), n))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_determines_inputs(name):
    assert _first(name, 7) == _first(name, 7)
    assert _first(name, 7) != _first(name, 8)


@pytest.mark.parametrize("name", ["cold_layers", "piecewise", "diagnostics"])
def test_decks_keep_their_composition(name):
    deck = wl.WORKLOADS[name]().trace_ops  # one deck
    kinds = [sorted(op.kind for op in _first(name, seed, deck)) for seed in (1, 2, 3)]
    assert kinds[0] == kinds[1] == kinds[2]


@pytest.mark.parametrize("name", sorted(CHEAP_OPS))
def test_traced_and_untraced_results_bitwise_identical(name):
    workload = wl.WORKLOADS[name]()
    ops = CHEAP_OPS[name]
    plain = [wl.fingerprint(wl.execute(workload, op)[1]) for op in ops]
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        traced = [wl.fingerprint(wl.execute(workload, op, tracer, i)[1]) for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans and all(span[4] is not None for span in tracer.spans)


def test_uninstall_restores_every_attribute():
    import chebbvp.integration
    import chebbvp.piecewise

    before = (chebbvp.integration.banded_solve, chebbvp.piecewise.np)
    tracer = tracing.Tracer()
    tracer.install()
    assert chebbvp.integration.banded_solve is not before[0]
    tracer.uninstall()
    assert (chebbvp.integration.banded_solve, chebbvp.piecewise.np) == before


def test_known_defects_fail_and_nothing_else_does():
    cold = wl.WORKLOADS["cold_layers"]()
    upp = CHEAP_OPS["cold_layers"][2]
    _, result, reason = wl.execute(cold, upp)
    assert isinstance(result, ValueError) and wl.is_known_defect(upp, reason)
    for op in CHEAP_OPS["cold_layers"][:2]:
        assert wl.execute(cold, op)[2] is None
    assert wl.execute(cold, Op("upp", (2e4, 4096, True)))[2] is None
    assert not wl.is_known_defect(Op("1a", (1e4, 8192)), "error 1 > 1e-09")


def test_warm_ops_reuse_the_factorization():
    workload = wl.WORKLOADS["warm_many_rhs"]()
    op = CHEAP_OPS["warm_many_rhs"][0]
    wl.execute(workload, op)  # fills the cache
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.execute(workload, op, tracer, 0)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["banded.solve"]["calls"] == 14  # 4 particular + 4+3+2+1 homogeneous
    assert "banded.factor" not in summary
    assert tracer.cache_totals["integration.factor_cache"] == [14, 0]


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_end_to_end_output_matches_spec():
    done = _run("--workload", "warm_many_rhs", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_names_every_layer_metric():
    done = _run("--workload", "warm_many_rhs", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert LAYER_NAMES <= set(expected)
    assert result["metrics"]["factored.banded_solves_per_op"]["value"] == 14
    assert json.loads(done.stdout.strip().splitlines()[-2])["bitwise_identical"]


def test_fails_without_the_solver_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "cold_layers", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
