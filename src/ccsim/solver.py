"""Linear solves and the DC operating point.

Linear systems are solved by LAPACK.  A suspect answer is solved again
by a hand-written dense LU with partial pivoting, the diagnostic: a pivot
smaller than 1e-13 aborts with the name of the unknown whose column lost
rank, almost always a floating node or a loop of voltage sources.  The
Newton loop damps
per-iteration voltage changes, and a gmin ladder (1e-3 S stepped down by
decades to 1e-12 S) rescues cold starts that plain iteration cannot.
A permanent gmin floor from every node to ground is always stamped, so
deliberately floating nodes (for example an unused conveyor Z terminal)
stay solvable without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mna
from .netlist import FlatCircuit

PIVOT_TOL = 1e-13
RESID_TOL = 1e-9


class SingularMatrixError(Exception):
    def __init__(self, column: int, unknown: str | None = None):
        self.column = column
        self.unknown = unknown
        what = f" (unknown {unknown})" if unknown else ""
        super().__init__(
            f"singular matrix: no usable pivot in column {column}{what}; "
            "a node is probably floating"
        )


class ConvergenceError(Exception):
    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


@dataclass
class Tolerances:
    reltol: float = 1e-6
    vntol: float = 1e-9
    abstol: float = 1e-12
    maxiter: int = 100
    damping: float = 0.5  # max per-iteration voltage change, volts
    gmin_floor: float = mna.GMIN_FLOOR


@dataclass
class OperatingPoint:
    x: np.ndarray
    residual_norm: float
    iterations: int
    gmin_final: float


def lu_factor(a: np.ndarray):
    """In-place-style LU factorization with partial pivoting.

    Returns (lu, perm) where lu packs both factors and perm records the
    row swap made at each elimination step.
    """
    lu = np.array(a, dtype=float, copy=True)
    n = lu.shape[0]
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < PIVOT_TOL:
            raise SingularMatrixError(k)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[k] = p
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


def lu_solve(factors, b: np.ndarray) -> np.ndarray:
    """Back-substitute one right-hand side vector or a matrix of columns."""
    lu, perm = factors
    n = lu.shape[0]
    x = np.array(b, dtype=float, copy=True)
    # stored multipliers live in the fully permuted row order, so the whole
    # swap sequence is applied before the triangular solves
    for k in range(n):
        p = perm[k]
        if p != k:
            x[[k, p]] = x[[p, k]]
    for k in range(n):
        x[k + 1 :] -= np.multiply.outer(lu[k + 1 :, k], x[k])
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1 :] @ x[k + 1 :]
        x[k] /= lu[k, k]
    return x


def solve_linear(a: np.ndarray, b: np.ndarray, row_names: list[str] | None = None) -> np.ndarray:
    """Solve a*x = b for one right-hand side vector or a matrix of columns.

    LAPACK's x is kept when it reproduces b to RESID_TOL of b's largest
    entry (a non-finite x never does) and is not so large that only a
    pivot under PIVOT_TOL could make it from b.  Otherwise the hand LU
    solves again; its :class:`SingularMatrixError` names the unknown
    through ``row_names`` (the unknown map's display names).
    """
    try:
        x = np.linalg.solve(a, b)
        scale = np.abs(b).max(initial=0.0)
        resid = abs(a @ x - b).max(initial=0.0)
        if resid <= RESID_TOL * scale and abs(x).max(initial=0.0) * PIVOT_TOL <= scale:
            return x
    except np.linalg.LinAlgError:
        pass
    try:
        return lu_solve(lu_factor(a), b)
    except SingularMatrixError as exc:
        if row_names is not None and exc.unknown is None:
            raise SingularMatrixError(exc.column, row_names[exc.column]) from None
        raise


def node_residual_norm(sys: mna.MnaSystem, x: np.ndarray, n_nodes: int) -> float:
    """Max KCL residual over the node-voltage rows, in amps."""
    r = sys.a @ x - sys.b
    return float(abs(r[:n_nodes]).max()) if n_nodes else 0.0


def _newton_attempt(
    c: FlatCircuit,
    u: mna.UnknownMap,
    tol: Tolerances,
    t: float,
    x0: np.ndarray,
    companions,
    gmin_extra: float,
    plan: mna.StampPlan,
):
    """One damped Newton run.  Returns (x, residual, iterations) or raises."""
    if plan.linear:
        sys = mna.assemble(c, u, t, None, companions, gmin_extra, plan=plan)
        x = solve_linear(sys.a, sys.b, u.names)
        return x, node_residual_norm(sys, x, u.n_nodes), 1
    x = x0.copy()
    nv = u.n_nodes
    dx_ok = False
    last_resid = np.inf
    for it in range(1, tol.maxiter + 1):
        sys = mna.assemble(c, u, t, x, companions, gmin_extra, plan=plan)
        last_resid = node_residual_norm(sys, x, u.n_nodes)
        if dx_ok and last_resid < tol.abstol:
            return x, last_resid, it - 1
        x_new = solve_linear(sys.a, sys.b, u.names)
        dx = x_new - x
        dv = dx[:nv]
        # clip to +-damping in place (np.clip's wrapper costs more than the work)
        np.minimum(np.maximum(dv, -tol.damping, out=dv), tol.damping, out=dv)
        x = x + dx
        dx_ok = bool((abs(dv) <= tol.reltol * abs(x[:nv]) + tol.vntol).all())
    raise ConvergenceError(
        f"Newton did not converge in {tol.maxiter} iterations "
        f"(last KCL residual {last_resid:.3e} A)",
        residual=last_resid,
    )


def gmin_stepped_dc(
    c: FlatCircuit,
    u: mna.UnknownMap,
    tol: Tolerances,
    t: float = 0.0,
    x0: np.ndarray | None = None,
    companions=None,
    gmin_start: float = 1e-3,
    plan: mna.StampPlan | None = None,
) -> OperatingPoint:
    """Homotopy fallback: extra conductances from every node to ground,
    stepped down by decades from ``gmin_start`` to 1e-12 S, reusing each
    rung's solution as the next initial guess, then a final solve with
    only the permanent floor."""
    plan = plan or mna.compile(c, u, tol.gmin_floor)
    x = np.zeros(u.size) if x0 is None else x0.copy()
    total_iters = 0
    g = gmin_start
    while g >= 1e-12 * 0.999:
        try:
            x, _, its = _newton_attempt(c, u, tol, t, x, companions, g, plan)
            total_iters += its
        except (ConvergenceError, SingularMatrixError):
            pass  # a failed rung keeps the previous rung's solution
        g /= 10.0
    try:
        x, resid, its = _newton_attempt(c, u, tol, t, x, companions, 0.0, plan)
        return OperatingPoint(x, resid, total_iters + its, tol.gmin_floor)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"no DC convergence even with gmin stepping: {exc}", exc.residual
        ) from None


def newton_dc(
    c: FlatCircuit,
    u: mna.UnknownMap,
    tol: Tolerances | None = None,
    t: float = 0.0,
    x0: np.ndarray | None = None,
    companions=None,
    gmin_start: float = 1e-3,
    plan: mna.StampPlan | None = None,
) -> OperatingPoint:
    """Find the DC solution at time ``t`` (sources evaluated there).

    Plain damped Newton first, restarting with :func:`gmin_stepped_dc`
    when it fails.  ``companions`` and ``plan`` are as in
    :func:`mna.assemble`; the plan is compiled here when not given.
    """
    tol = tol or Tolerances()
    plan = plan or mna.compile(c, u, tol.gmin_floor)
    x0 = np.zeros(u.size) if x0 is None else x0
    try:
        x, resid, its = _newton_attempt(c, u, tol, t, x0, companions, 0.0, plan)
        return OperatingPoint(x, resid, its, tol.gmin_floor)
    except (ConvergenceError, SingularMatrixError):
        pass
    return gmin_stepped_dc(c, u, tol, t, x0, companions, gmin_start, plan)
