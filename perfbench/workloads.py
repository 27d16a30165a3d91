"""Seeded workloads of the chebbvp benchmark.

Each workload turns a seed into an endless stream of ``Op`` records, groups
of ops ("decks") with a fixed composition whose order and parameters come
from the seed.  A fixed composition keeps the mix of cheap and expensive
ops, and so every percentile, the same from seed to seed.  ``prepare``
turns an op into solver inputs, ``run`` calls the solver on them (the only
timed part), and ``check`` compares the result with an exact solution or
an oracle.  The solver sees only the generated inputs.

Workloads (why each exists is recorded in BENCHMARK.json as well):

- ``cold_layers``: one-shot single-grid boundary-layer solves with every
  factorization and endpoint-row cache cleared before each op, the cost of
  one ``chebbvp solve`` or ``chebbvp tables`` run.  Three ops in nineteen
  are fourth-order problems with u'' boundary conditions, which go through
  the dense differentiation matrix (and fail at M = 8192).
- ``warm_many_rhs``: one fixed fourth-order operator, factorizations cached
  by the warm-up, and manufactured right-hand sides solved back to back.
- ``piecewise``: table 3's five grids with seeded boundary values, twice on
  the spectral backend and once on the differentiation-matrix backend, and
  eight of table 4's internal-layer grids on the differentiation-matrix
  backend.
- ``diagnostics``: the fig. 2 singular spectrum (eight times) and one point
  of a seeded condition-number sweep, both through the Jacobi SVD.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

import chebbvp.diagnostics as diagnostics
import chebbvp.diffmat as diffmat
import chebbvp.factored as factored
import chebbvp.integration as integration
import chebbvp.piecewise as piecewise
from chebbvp.chebyshev import cheb_points, to_values
from chebbvp.diffmat import AffineConvectionOp
from chebbvp.factored import BoundaryCondition, OperatorFactorization
from chebbvp.integration import FirstOrderOp, SecondOrderOp
from chebbvp.piecewise import PiecewiseGrid
from chebbvp.problems import exact_function

D = BoundaryCondition.dirichlet


@dataclass(frozen=True)
class Op:
    """One generated operation: its check family and the numbers defining it."""

    kind: str
    params: tuple


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


class Workload:
    """Shared stream plumbing; subclasses define the deck and the op."""

    name = ""
    trace_ops = 0  # length of the fixed op list of a traced run: one deck, or 100 warm ops
    # op_ms_tail's percentile: inside one op class of the deck, so that it does
    # not jump between classes, and with >= 10 samples beyond it in a 30 s run
    tail_percentile = 50.0

    def deck(self, rng: np.random.Generator) -> list[Op]:
        raise NotImplementedError

    def decks(self, seed: int):
        """Endless stream of seeded decks, each shuffled."""
        rng = np.random.default_rng(seed)
        while True:
            ops = self.deck(rng)
            yield [ops[i] for i in rng.permutation(len(ops))]

    def ops(self, seed: int):
        return itertools.chain.from_iterable(self.decks(seed))

    def prepare(self, op: Op):
        return None


# ---------------------------------------------------------------- cold_layers

COLD_MS = (8192, 16384, 65536, 131072)
LAYER_KINDS = ("1a", "1c", "1e_linear", "1e_quadratic")
# The u'' ops run at M = 4096, where a layer of width 1/a needs a <= 1e5 to
# be resolved, and twice at M = 8192, where the dense diffmat guard raises.
UPP_MS = (4096, 8192, 8192)
COLD_TOL = {"1a": 1e-9, "1c": 1e-9, "1e_linear": 1e-6, "1e_quadratic": 1e-6, "upp": 1e-6}


def _fourth_order(a: float, b: float, linear: bool) -> OperatorFactorization:
    if linear:
        return OperatorFactorization(linear=(FirstOrderOp(a), FirstOrderOp(-a), FirstOrderOp(b), FirstOrderOp(-b)))
    return OperatorFactorization(quadratic=(SecondOrderOp(0.0, -a * a), SecondOrderOp(0.0, -b * b)))


def _cosh_pair_upp(a: float, b: float) -> float:
    """u''(+-1) of the cosh_pair profile (its phi terms equal 1 at both ends)."""
    ta, tb = math.tanh(a), math.tanh(b)
    return a * b * (ta * b - tb * a) / (b * tb - a * ta)


def cold_problem(op: Op):
    """(operator, rhs, bcs, exact) of one cold_layers op."""
    a = op.params[0]
    if op.kind == "1a":
        operator = OperatorFactorization(linear=(FirstOrderOp(-a),))
        return operator, lambda y: np.full_like(y, a), [D(-1, 0.0)], exact_function(f"saturating_exp:{a!r}")
    if op.kind == "1c":
        operator = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(a)))
        return operator, _zero, [D(-1, 1.0), D(1, 2.0)], exact_function(f"exp_ramp:{a!r}:1:2")
    b = 2.0 * a
    if op.kind == "upp":
        operator = _fourth_order(a, b, op.params[2])
        upp = _cosh_pair_upp(a, b)
        bcs = [D(-1, 0.0), D(1, 0.0), BoundaryCondition.derivative(-1, 2, upp), BoundaryCondition.derivative(1, 2, upp)]
    else:
        operator = _fourth_order(a, b, op.kind == "1e_linear")
        bcs = [D(-1, 0.0), D(1, 0.0), BoundaryCondition.derivative(-1, 1, 0.0), BoundaryCondition.derivative(1, 1, 0.0)]
    return operator, lambda y: np.full_like(y, a * a * b * b), bcs, exact_function(f"cosh_pair:{a!r}:{b!r}")


def clear_solver_caches():
    """Empty the caches a one-shot CLI run starts without."""
    integration._first_order_factorization.cache_clear()
    integration._second_order_factorization.cache_clear()
    diffmat.diff_endpoint_row.cache_clear()


def _zero(y):
    return np.zeros_like(y)


def _bound(what: str, value: float, bound: float) -> str | None:
    """None when value <= bound, else the reason the check failed."""
    return None if value <= bound else f"{what} {value:.3g} > {bound:.3g}"


def grid_error(coeffs, exact) -> float:
    """Sup-norm error over the solution's own Chebyshev points."""
    return float(np.max(np.abs(to_values(coeffs).v - exact(cheb_points(coeffs.m).points))))


class ColdLayers(Workload):
    """An op is one single-grid solve with every cache cleared first.  A deck
    holds each layer family at each grid order and three u'' problems.

    The deck's op count, 19, is odd, so its median falls in the middle of
    one op class, the M = 16384 1e_linear solve.  With an even count it
    would fall between two classes, on the slowest op of the lower one and
    the fastest of the upper one, which vary far more."""

    name = "cold_layers"
    trace_ops = 19
    tail_percentile = 92.0  # the M = 131072 1e_linear solve

    def deck(self, rng):
        ops = [Op(kind, (_log_uniform(rng, 1e4, 1e6), m)) for kind in LAYER_KINDS for m in COLD_MS]
        for m in UPP_MS:
            ops.append(Op("upp", (_log_uniform(rng, 1e4, 1e5), m, bool(rng.integers(2)))))
        return ops

    def prepare(self, op: Op):
        clear_solver_caches()
        return cold_problem(op)

    def run(self, op: Op, inputs):
        operator, rhs, bcs, _ = inputs
        return factored.solve_bvp(operator, rhs, bcs, m=op.params[1])

    def check(self, op: Op, inputs, result) -> str | None:
        return _bound("error", grid_error(result.coeffs, inputs[3]), COLD_TOL[op.kind])

    def warm_up_ops(self):
        """Fourth-order solves at M = 16384, where the start-up transient was seen."""
        return [Op("1e_linear", (1e6, 16384)), Op("1e_quadratic", (1e6, 16384))]


# -------------------------------------------------------------- warm_many_rhs

WARM_A, WARM_B, WARM_M = 1e6, 2e6, 16384
WARM_TERMS = 3
WARM_TOL = 1e-9


def warm_operator() -> OperatorFactorization:
    return _fourth_order(WARM_A, WARM_B, linear=True)


def _char_poly(op: OperatorFactorization, s: np.ndarray) -> np.ndarray:
    """p(s) with L = p(D): linear factors (s - a), quadratic (s^2 + b s + c)."""
    out = np.ones_like(s)
    for f in op.linear:
        out = out * (s - f.a)
    for q in op.quadratic:
        out = out * (s * s + q.b * s + q.c)
    return out


def manufactured(op: OperatorFactorization, c, w, phi):
    """(u, u', f) for u = sum c_k cos(w_k y + phi_k) and f = L u."""
    c, w, phi = (np.asarray(v, dtype=float) for v in (c, w, phi))
    gain = c * _char_poly(op, 1j * w)  # Re(gain e^{i theta}) = gain.real cos - gain.imag sin

    def u(y):
        return (c * np.cos(np.multiply.outer(y, w) + phi)).sum(-1)

    def du(y):
        return (-c * w * np.sin(np.multiply.outer(y, w) + phi)).sum(-1)

    def f(y):
        theta = np.multiply.outer(y, w) + phi
        return (gain.real * np.cos(theta) - gain.imag * np.sin(theta)).sum(-1)

    return u, du, f


def _rhs_op(rng: np.random.Generator) -> Op:
    return Op(
        "manufactured",
        (
            tuple(rng.uniform(-1.0, 1.0, WARM_TERMS)),
            tuple(rng.uniform(1.0, 40.0, WARM_TERMS)),
            tuple(rng.uniform(0.0, 2.0 * math.pi, WARM_TERMS)),
        ),
    )


class WarmManyRhs(Workload):
    """A deck is a single right-hand side: one client in a closed loop."""

    name = "warm_many_rhs"
    trace_ops = 100
    tail_percentile = 99.0

    def __init__(self):
        self.operator = warm_operator()

    def deck(self, rng):
        return [_rhs_op(rng)]

    def prepare(self, op: Op):
        u, du, f = manufactured(self.operator, *op.params)
        bcs = [
            D(-1, float(u(-1.0))),
            D(1, float(u(1.0))),
            BoundaryCondition.derivative(-1, 1, float(du(-1.0))),
            BoundaryCondition.derivative(1, 1, float(du(1.0))),
        ]
        return f, bcs, u

    def run(self, op: Op, inputs):
        f, bcs, _ = inputs
        return factored.solve_bvp(self.operator, f, bcs, m=WARM_M)

    def check(self, op: Op, inputs, result) -> str | None:
        return _bound("error", grid_error(result.coeffs, inputs[2]), WARM_TOL)

    def warm_up_ops(self):
        """Fixed right-hand sides (the first one also fills the factorization cache)."""
        rng = np.random.default_rng(0)
        return [_rhs_op(rng) for _ in range(4)]


# ------------------------------------------------------------------ piecewise

LAYER_A = 1e6
TABLE3_ROWS = (
    (16, 1024, 32, 0.5, 0.99999),
    (16, 4096, 32, 0.5, 0.99999),
    (32, 128, 32, 0.999, 0.99999),
    (32, 64, 32, 0.9999, 0.99999),
    (32, 32, 32, 0.99995, 0.99999),
)
# Row 1 puts 1024 points on [0.5, 0.99999], too few for the layer's tail
# (still e^-10 at 0.99999) that row 2 resolves with 4096; its bounds sit above
# the errors of the parent commit (5.8e-6 spectral, 8.5e-3 diffmat).
TABLE3_TOL = {(1024, "spectral"): 1e-4, (1024, "diffmat"): 5e-2}
TABLE3_DEFAULT_TOL = 1e-8
INTERNAL_EPS = 1e-12
# Table 4 row 1 (m = 32, node4 = 5 sqrt(eps)) is pinned to the 1e-12 overshoot
# bound of the tier-1 tests; it fails at 2 BLAS threads (ROADMAP item 3).  Away
# from that node the discretization alone overshoots by up to ~5e-6 at m = 24.
TABLE4_ROW1_OVERSHOOT = 1e-12
TABLE4_TOL = 1e-5


def table3_problem(params):
    """A table-3 grid (the first five params) with boundary values ul, ur."""
    m1, m2, m3, n2, n3, ul, ur = params
    operator = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(LAYER_A)))
    grid = PiecewiseGrid(np.array([-1.0, n2, n3, 1.0]), (m1, m2, m3))
    return operator, grid, [D(-1, ul), D(1, ur)], exact_function(f"exp_ramp:{LAYER_A!r}:{ul!r}:{ur!r}")


def table4_problem(m: int, node4: float):
    s = math.sqrt(INTERNAL_EPS)
    operator = AffineConvectionOp(diff2=INTERNAL_EPS, conv_slope=1.0, conv_const=0.0)
    grid = PiecewiseGrid(np.array([-1.0, -8 * s, -3 * s, node4 * s, 8 * s, 1.0]), (m,) * 5)
    return operator, grid, [D(-1, -1.0), D(1, 1.0)], exact_function(f"erf_step:{INTERNAL_EPS!r}")


def piecewise_error(sol, exact) -> float:
    pts, vals = piecewise.sample_piecewise(sol)
    return float(np.max(np.abs(vals - exact(pts))))


class Piecewise(Workload):
    name = "piecewise"
    trace_ops = 23
    tail_percentile = 93.0  # the m2 = 1024 table-3 grid on the diffmat backend

    def deck(self, rng):
        """Table 3 twice on the spectral backend and once on the diffmat
        backend, each grid with boundary values drawn from [1, 2]; table 4's
        row 1 twice, five seeded m = 32 grids and one seeded m = 24 grid.

        By latency the 23 ops sort into ten under 1.5 ms, three near 2.5 ms
        (the m2 = 4096 spectral grid twice, the m2 = 128 diffmat grid once),
        the eight table-4 grids at 3-5 ms and two large diffmat grids, so the
        median falls in the middle of the three.  Those three stay as fast
        when another process holds a core; the table-4 solves, whose small
        LAPACK calls use both BLAS threads, then slow down 1.6-2x, and on a
        shared host that contention comes and goes over minutes.
        """
        ops = [
            Op("table3_" + backend, row + tuple(float(v) for v in rng.uniform(1.0, 2.0, 2)))
            for backend in ("spectral", "spectral", "diffmat")
            for row in TABLE3_ROWS
        ]
        ops += [Op("table4_row1", (32, 5.0))] * 2
        for m in (32,) * 5 + (24,):
            ops.append(Op("table4_seeded", (m, float(rng.uniform(3.0, 7.0)))))
        return ops

    def prepare(self, op: Op):
        if op.kind.startswith("table3"):
            return table3_problem(op.params)
        return table4_problem(*op.params)

    def run(self, op: Op, inputs):
        operator, grid, bcs, _ = inputs
        if op.kind == "table3_spectral":
            return piecewise.piecewise_solve_spectral(operator, _zero, grid, bcs), None
        sol = piecewise.piecewise_solve_diffmat(operator, _zero, grid, bcs)
        if op.kind == "table3_diffmat":
            return sol, None
        return sol, piecewise.overshoot(sol, -1.0, 1.0, samples=10000)

    def check(self, op: Op, inputs, result) -> str | None:
        sol, over = result
        err = piecewise_error(sol, inputs[3])
        if op.kind.startswith("table3"):
            backend = op.kind.split("_", 1)[1]
            return _bound("error", err, TABLE3_TOL.get((op.params[1], backend), TABLE3_DEFAULT_TOL))
        bound = TABLE4_ROW1_OVERSHOOT if op.kind == "table4_row1" else TABLE4_TOL
        return _bound("error", err, TABLE4_TOL) or _bound("overshoot", over, bound)

    def warm_up_ops(self):
        return [
            Op("table3_spectral", TABLE3_ROWS[-1] + (1.0, 2.0)),
            Op("table3_diffmat", TABLE3_ROWS[-1] + (1.0, 2.0)),
            Op("table4_seeded", (32, 4.0)),
        ]


# ---------------------------------------------------------------- diagnostics

FIG2_OP = SecondOrderOp(1e5, -1e6)
FIG2_M = 128
SWEEP_M = 256
SVD_RTOL = 1e-9


def _oracle_sigma(op: SecondOrderOp, m: int) -> np.ndarray:
    return np.linalg.svd(integration.second_order_matrix(op, m).todense(), compute_uv=False)


def _cond_check(cond: float, sigma: np.ndarray) -> str | None:
    return _bound("condition rel. error", abs(cond * sigma[-1] / sigma[0] - 1.0), SVD_RTOL)


class Diagnostics(Workload):
    name = "diagnostics"
    trace_ops = 9
    tail_percentile = 70.0  # among the fig. 2 spectra, >= 10 beyond it in a run of four decks

    def deck(self, rng):
        return [Op("fig2", ())] * 8 + [Op("sweep", (_log_uniform(rng, 1.0, 1e6),))]

    def run(self, op: Op, inputs):
        if op.kind == "fig2":
            return diagnostics.singular_spectrum(diagnostics.dense_export(FIG2_OP, FIG2_M))
        return diagnostics.condition_vs_parameter([op.params[0]], SWEEP_M)

    def check(self, op: Op, inputs, result) -> str | None:
        """numpy.linalg.svd of the same matrix is the oracle."""
        if op.kind == "fig2":
            sigma = _oracle_sigma(FIG2_OP, FIG2_M)
            worst = float(np.max(np.abs(result.singular_values - sigma) / sigma))
            return _bound("sigma rel. error", worst, SVD_RTOL) or _cond_check(result.condition, sigma)
        ((a, cond),) = result
        return _cond_check(cond, _oracle_sigma(SecondOrderOp(0.0, -a * a), SWEEP_M))

    def warm_up_ops(self):
        return [Op("fig2", ())]


WORKLOADS = {w.name: w for w in (ColdLayers, WarmManyRhs, Piecewise, Diagnostics)}
ALL_KINDS = (
    LAYER_KINDS
    + ("upp", "manufactured", "table3_spectral", "table3_diffmat", "table4_row1", "table4_seeded", "fig2", "sweep")
)


# Failures the ROADMAP already records.  They count in `failed` like any
# other; they only keep a run's `correct` true, which any other failure
# makes false.
KNOWN_DEFECTS = {
    # item 4: a u'' condition reads the dense differentiation matrix, capped at m = 4096
    "upp": lambda op, reason: op.params[1] > 4096 and reason.startswith("ValueError: dense differentiation"),
    # item 3: the threaded dense solve of table 4 row 1 overshoots the 1e-12 bound
    "table4_row1": lambda op, reason: reason.startswith("overshoot"),
}


def is_known_defect(op: Op, reason: str) -> bool:
    known = KNOWN_DEFECTS.get(op.kind)
    return known is not None and known(op, reason)


def fingerprint(result) -> bytes:
    """Bytes of every float a result holds, for bitwise comparison of runs."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}".encode()
    if isinstance(result, factored.Solution):
        return result.coeffs.a.tobytes()
    if isinstance(result, tuple):  # piecewise: (solution, overshoot or None)
        sol, over = result
        return b"".join(c.a.tobytes() for c in sol.local_coeffs) + repr(over).encode()
    if isinstance(result, diagnostics.SpectrumReport):
        return result.singular_values.tobytes() + result.right_vectors.tobytes()
    return np.asarray(result, dtype=float).tobytes()


def execute(workload, op: Op, tracer=None, op_id: int = 0):
    """Run one op: (seconds, result or exception, failure reason or None).

    Only ``workload.run`` is timed and traced; preparing the inputs and
    checking the result stay outside.
    """
    inputs = workload.prepare(op)
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        result = workload.run(op, inputs)
        seconds = time.perf_counter() - t0
    except Exception as exc:  # a raising op counts as failed; the run goes on
        seconds = time.perf_counter() - t0
        return seconds, exc, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end_op()
    return seconds, result, workload.check(op, inputs, result)
