#!/usr/bin/env python3
"""Benchmark of the chebbvp solver, end to end and layer by layer.

    python3 perfbench/run.py --workload cold_layers --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the solver is imported from ``src/``.
The workloads are defined in ``workloads.py``.  All ops run in this one
process, one after another, at the default BLAS thread count.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: imports plus warm-up, the median of this process's set-up
  and four more set-ups in fresh interpreters;
- ``op_ms_p50`` and ``op_ms_tail``: per-op latency, the tail at the
  workload's ``tail_percentile``, chosen inside one op class and with at
  least ten samples beyond it in a 30-second run (the count beyond it is
  recorded);
- ``ops_per_s``: ops completed per second of solver time;
- ``peak_rss_mb``: this process's peak resident set.

``--trace 1`` runs the workload's first ``trace_ops`` ops untraced and then
traced, and reports the per-layer metrics of the traced pass, the tracing
overhead, and the failures of the same ops traced again in a child process
with ``OPENBLAS_NUM_THREADS=1``.  Span files go to ``perfbench/out/``.

Every op's result is checked against an exact solution or an oracle outside
the timed region.  The last stdout line is the result JSON; the line before
it records the environment and the details behind the metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: imports plus warm-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# the keys of workloads.WORKLOADS, which is imported only once src/ is found
WORKLOAD_NAMES = ("cold_layers", "warm_many_rhs", "piecewise", "diagnostics")
SETUP_PROBES = 4
WARM_UP_LIMIT_S = 5.0
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set-up probes and the single-threaded traced child
    parser.add_argument("--role", choices=("main", "setup-probe", "threads1"), default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import the checkout's own solver from src/, or exit 2 when it is absent."""
    if not (SRC / "chebbvp" / "__init__.py").is_file():
        print(f"error: no chebbvp sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import chebbvp
    import workloads

    if Path(chebbvp.__file__).resolve().parent != SRC / "chebbvp":
        print(f"error: imported chebbvp from {chebbvp.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def warm_up(wl, workload):
    """Repeat the warm-up ops until a round is within 25% of the fastest before it.

    Start-up transients (a process whose first warm solves run ~10x slow for
    most of a second was seen) end here, inside set-up, not in the timed ops.
    """
    ops = workload.warm_up_ops()
    rounds: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < WARM_UP_LIMIT_S:
        t0 = time.perf_counter()
        for op in ops:
            wl.execute(workload, op)
        rounds.append(time.perf_counter() - t0)
        if len(rounds) >= 2 and rounds[-1] <= 1.25 * min(rounds[:-1]):
            break
    return rounds


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_ops(wl, workload, ops, tracer=None):
    """Run a fixed op list: per op (op, seconds, failure reason, result digest)."""
    out = []
    for op_id, op in enumerate(ops):
        seconds, result, reason = wl.execute(workload, op, tracer, op_id)
        out.append((op, seconds, reason, hashlib.sha256(wl.fingerprint(result)).hexdigest()))
    return out


def measure(wl, workload, decks, seconds: float):
    """Run whole decks while the next one, as long as the longest so far, ends within `seconds`.

    Whole decks keep the op mix, and so the percentiles and the throughput,
    the same from run to run.
    """
    out = []
    start = time.perf_counter()
    longest = 0.0
    for deck in decks:
        t0 = time.perf_counter()
        for op in deck:
            op_seconds, _, reason = wl.execute(workload, op)
            out.append((op, op_seconds, reason))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return out
    return out


def failures(wl, records) -> tuple[dict[str, int], int]:
    """Failed ops per kind, and how many failures are not known defects."""
    by_kind: dict[str, int] = {}
    unknown = 0
    for op, _, reason, *_ in records:
        if reason is not None:
            by_kind[op.kind] = by_kind.get(op.kind, 0) + 1
            unknown += not wl.is_known_defect(op, reason)
    return by_kind, unknown


def child(args, role: str, env=None) -> dict:
    """Run this benchmark in a fresh interpreter in another role; its last stdout line."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, workload, args, own_setup: float) -> dict:
    setups = [own_setup] + [child(args, "setup-probe")["setup_s"] for _ in range(SETUP_PROBES)]
    records = measure(wl, workload, workload.decks(args.seed), args.seconds)
    samples_ms = [1000.0 * s for _, s, _ in records]
    fails, unknown = failures(wl, records)
    tail_ms = float(np.percentile(samples_ms, workload.tail_percentile))
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_ms_p50": metric(statistics.median(samples_ms), "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
        "ops_per_s": metric(len(records) / sum(s for _, s, _ in records), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "workload": args.workload,
        "env": environment(args.seed),
        "setup_samples_s": setups,
        "tail_percentile": workload.tail_percentile,
        "samples": len(records),
        "samples_beyond_tail": sum(x > tail_ms for x in samples_ms),
        "fail_ratio": sum(fails.values()) / len(records),
        "failed_by_kind": fails,
        "unexpected_failures": unknown,
        "first_failures": sorted({f"{op.kind}: {r}" for op, _, r in records if r is not None})[:8],
    }
    print(json.dumps(details))
    return {"correct": unknown == 0, "attempted": len(records), "failed": sum(fails.values()), "metrics": metrics}


def traced_pass(wl, workload, ops):
    tracer = tracing.Tracer()
    missing = tracer.install()
    try:
        records = run_ops(wl, workload, ops, tracer)
    finally:
        tracer.uninstall()
    return tracer, records, missing


def write_trace(args, name: str, tracer, records, missing) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}{name}.json"
    doc = {
        "workload": args.workload,
        "env": environment(args.seed),
        "span_fields": ["name", "start", "end", "parent", "op", "raised", "size"],
        "spans": tracer.spans,
        "ops": [[i, op.kind, s, r] for i, (op, s, r, _) in enumerate(records)],
        "self_time": {k: v["self_s"] for k, v in tracer.summary().items()},
        "unpatched": missing,
    }
    path.write_text(json.dumps(doc))
    return path


def layer_metrics(summary: dict, caches: dict, n_ops: int) -> dict:
    def get(name: str, field: str = "s"):
        return summary.get(name, {}).get(field, 0)

    factor_hits, factor_misses = caches.get("integration.factor_cache", (0, 0))
    return {
        "banded.solve_calls": metric(get("banded.solve", "calls"), "count"),
        "banded.solve_s": metric(get("banded.solve"), "s"),
        "banded.solve_rows": metric(get("banded.solve", "size"), "count"),
        "factored.banded_solves_per_op": metric(get("banded.solve", "calls") / n_ops, "count/op"),
        "banded.factor_calls": metric(get("banded.factor", "calls"), "count"),
        "banded.factor_s": metric(get("banded.factor"), "s"),
        "integration.factor_cache_hits": metric(factor_hits, "count"),
        "integration.factor_cache_misses": metric(factor_misses, "count"),
        "banded.dense_solve_calls": metric(
            get("banded.dense_solve", "calls") + get("piecewise.interface_solve", "calls"), "count"
        ),
        "banded.dense_solve_s": metric(get("banded.dense_solve") + get("piecewise.interface_solve"), "s"),
        "chebyshev.transform_calls": metric(get("chebyshev.transform", "calls"), "count"),
        "chebyshev.transform_s": metric(get("chebyshev.transform"), "s"),
        "chebyshev.transform_points": metric(get("chebyshev.transform", "size"), "count"),
        "chebyshev.sample_self_s": metric(get("chebyshev.function_to_coeffs", "self_s"), "s"),
        "chebyshev.eval_s": metric(get("chebyshev.eval"), "s"),
        "factored.solve_chains_s": metric(get("factored.solve_chains"), "s"),
        "factored.fit_boundary_s": metric(get("factored.fit_boundary"), "s"),
        "diffmat.endpoint_row_s": metric(get("diffmat.endpoint_row"), "s"),
        "diffmat.endpoint_row_cache_misses": metric(caches.get("diffmat.endpoint_row_cache", (0, 0))[1], "count"),
        "diffmat.build_calls": metric(get("diffmat.build", "calls"), "count"),
        "diffmat.build_raised": metric(get("diffmat.build", "raised"), "count"),
        "diffmat.build_s": metric(get("diffmat.build"), "s"),
        "diffmat.operator_matrix_s": metric(get("diffmat.operator_matrix"), "s"),
        # computed, not measured: 8 bytes per entry of each dense matrix built
        "diffmat.dense_bytes": metric(8 * (get("diffmat.build", "size2") + get("diffmat.operator_matrix", "size2")), "B"),
        "piecewise.collocation_solve_s": metric(get("piecewise.collocation_solve"), "s"),
        "piecewise.collocation_n": metric(get("piecewise.collocation_solve", "size_max"), "count"),
        "piecewise.interface_solve_s": metric(get("piecewise.interface_solve"), "s"),
        "piecewise.assembly_self_s": metric(
            get("piecewise.solve_spectral", "self_s") + get("piecewise.solve_diffmat", "self_s"), "s"
        ),
        "piecewise.sample_s": metric(get("piecewise.sample"), "s"),
        "diagnostics.export_s": metric(get("diagnostics.export"), "s"),
        "diagnostics.svd_s": metric(get("diagnostics.svd"), "s"),
        "diagnostics.svd_n": metric(get("diagnostics.svd", "size_max"), "count"),
    }


def failure_metrics(wl, prefix: str, by_kind: dict[str, int], n_ops: int) -> dict:
    out = {f"{prefix}ops.fail_ratio": metric(sum(by_kind.values()) / n_ops, "ratio")}
    for kind in wl.ALL_KINDS:
        out[f"{prefix}ops.failed.{kind}"] = metric(by_kind.get(kind, 0), "count")
    return out


def threads1_pass(wl, workload, args) -> dict:
    """The traced op list once, in the child that runs with one BLAS thread."""
    ops = list(islice(workload.ops(args.seed), workload.trace_ops))
    tracer, traced, missing = traced_pass(wl, workload, ops)
    write_trace(args, "_threads1", tracer, traced, missing)
    return {"failed_by_kind": failures(wl, traced)[0], "ops": len(traced)}


def per_layer(wl, workload, args) -> dict:
    """Untraced and traced passes over one fixed op list, alternated twice.

    The first traced pass gives the per-layer metrics; the overhead compares
    the per-op minima of the two traced and the two untraced passes.
    """
    ops = list(islice(workload.ops(args.seed), workload.trace_ops))
    untraced = [run_ops(wl, workload, ops)]
    tracer, traced, missing = traced_pass(wl, workload, ops)
    untraced.append(run_ops(wl, workload, ops))
    traced_again = traced_pass(wl, workload, ops)[1]
    path = write_trace(args, "", tracer, traced, missing)
    threads1 = child(args, "threads1", env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))

    passes = untraced + [traced, traced_again]
    identical = all(len({p[i][3] for p in passes}) == 1 for i in range(len(ops)))
    untraced_s = sum(min(u[1] for u in per_op) for per_op in zip(*untraced))
    traced_s = sum(min(t[1] for t in per_op) for per_op in zip(traced, traced_again))
    summary = tracer.summary()
    metrics = layer_metrics(summary, tracer.cache_totals, len(ops))
    metrics.update({
        "trace.ops": metric(len(ops), "count"),
        "trace.spans": metric(len(tracer.spans), "count"),
        "trace.untraced_s": metric(untraced_s, "s"),
        "trace.traced_s": metric(traced_s, "s"),
        "trace.overhead_pct": metric(100.0 * (traced_s / untraced_s - 1.0), "%"),
    })
    metrics.update(failure_metrics(wl, "", failures(wl, traced)[0], len(ops)))
    metrics.update(failure_metrics(wl, "threads1.", threads1["failed_by_kind"], threads1["ops"]))

    details = {
        "workload": args.workload,
        "env": environment(args.seed),
        "trace_file": str(path.relative_to(ROOT)),
        "bitwise_identical": identical,
        "unpatched": missing,
        "self_time_s": {k: v["self_s"] for k, v in sorted(summary.items())},
    }
    print(json.dumps(details))
    for name, rec in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:32s} calls {rec['calls']:7d}  total {rec['s']:9.4f} s  self {rec['self_s']:9.4f} s", file=sys.stderr)
    all_records = [r for p in passes for r in p]
    fails, unknown = failures(wl, all_records)
    return {
        "correct": identical and unknown == 0,
        "attempted": len(all_records),
        "failed": sum(fails.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_workloads()
    workload = wl.WORKLOADS[args.workload]()
    warm_up(wl, workload)
    own_setup = time.perf_counter() - _T0
    if args.role == "setup-probe":
        result = {"setup_s": own_setup}
    elif args.role == "threads1":
        result = threads1_pass(wl, workload, args)
    elif args.trace:
        result = per_layer(wl, workload, args)
    else:
        result = end_to_end(wl, workload, args, own_setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
