"""Linear solves and the DC operating point.

Linear systems are solved by LAPACK, one matrix or a stack of them in
one call.  A suspect answer is solved again by a hand-written dense LU
with partial pivoting, the diagnostic: a pivot smaller than 1e-13 aborts
with the name of the unknown whose column lost rank, almost always a
floating node or a loop of voltage sources.  The Newton loop damps
per-iteration voltage changes, and a gmin ladder (1e-3 S stepped down by
decades to 1e-12 S) rescues cold starts that plain iteration cannot.
A permanent gmin floor from every node to ground is always stamped, so
deliberately floating nodes (for example an unused conveyor Z terminal)
stay solvable without special cases.  The sources are stamped once per
Newton call, not once per iteration.

:func:`newton_stack` runs the plain Newton over K variants of one
circuit at once (see :func:`mna.stack`): one assembly and one stacked
LAPACK solve per iteration for all variants still iterating.
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

    A stack ``a`` of shape (K, n, n) with ``b`` of shape (K, n) is solved
    by one LAPACK call; each slice is then accepted, or solved again on
    its own, as above.  The error of the first slice that fails is raised.
    """
    if np.ndim(a) == 3:
        return _solve_stack(a, b, row_names)
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


def _solve_stack(a, b, row_names):
    a, b = np.asarray(a), np.asarray(b)
    try:
        x = np.linalg.solve(a, b[..., None])[..., 0]
        scale = np.abs(b).max(axis=-1, initial=0.0)
        resid = abs((a @ x[..., None])[..., 0] - b).max(axis=-1, initial=0.0)
        ok = (resid <= RESID_TOL * scale) & (abs(x).max(axis=-1, initial=0.0) * PIVOT_TOL <= scale)
    except np.linalg.LinAlgError:
        # one singular slice fails the whole call
        x, ok = np.empty(b.shape), np.zeros(len(b), dtype=bool)
    for k in np.flatnonzero(~ok):
        x[k] = solve_linear(a[k], b[k], row_names)
    return x


def node_residual_norm(sys: mna.MnaSystem, x: np.ndarray, n_nodes: int):
    """Max KCL residual over the node-voltage rows, in amps; one per
    slice of a stacked system."""
    if x.ndim > 1:
        r = (sys.a @ x[..., None])[..., 0] - sys.b
        return abs(r[..., :n_nodes]).max(axis=-1, initial=0.0)
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
    base: np.ndarray,
):
    """One damped Newton run.  Returns (x, residual, iterations) or raises."""
    if plan.linear:
        sys = mna.assemble(c, u, t, None, companions, gmin_extra, plan=plan, base=base)
        x = solve_linear(sys.a, sys.b, u.names)
        return x, node_residual_norm(sys, x, u.n_nodes), 1
    x = x0.copy()
    nv = u.n_nodes
    dx_ok = False
    last_resid = np.inf
    for it in range(1, tol.maxiter + 1):
        sys = mna.assemble(c, u, t, x, companions, gmin_extra, plan=plan, base=base)
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
    base = mna.stamp_sources(plan, t)
    x = np.zeros(u.size) if x0 is None else x0.copy()
    total_iters = 0
    g = gmin_start
    while g >= 1e-12 * 0.999:
        try:
            x, _, its = _newton_attempt(c, u, tol, t, x, companions, g, plan, base)
            total_iters += its
        except (ConvergenceError, SingularMatrixError):
            pass  # a failed rung keeps the previous rung's solution
        g /= 10.0
    try:
        x, resid, its = _newton_attempt(c, u, tol, t, x, companions, 0.0, plan, base)
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
    rescue: bool = True,
) -> OperatingPoint:
    """Find the DC solution at time ``t`` (sources evaluated there).

    Plain damped Newton first, restarting with :func:`gmin_stepped_dc`
    when it fails; with ``rescue=False`` the failure is raised instead.
    ``companions`` and ``plan`` are as in :func:`mna.assemble`; the plan
    is compiled here when not given.
    """
    tol = tol or Tolerances()
    plan = plan or mna.compile(c, u, tol.gmin_floor)
    x0 = np.zeros(u.size) if x0 is None else x0
    try:
        x, resid, its = _newton_attempt(
            c, u, tol, t, x0, companions, 0.0, plan, mna.stamp_sources(plan, t)
        )
        return OperatingPoint(x, resid, its, tol.gmin_floor)
    except (ConvergenceError, SingularMatrixError):
        if not rescue:
            raise
    return gmin_stepped_dc(c, u, tol, t, x0, companions, gmin_start, plan)


def newton_stack(
    c: FlatCircuit,
    u: mna.UnknownMap,
    tol: Tolerances,
    t: float,
    x0: np.ndarray,
    companions,
    plan: mna.StampPlan,
    live: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`newton_dc`'s plain damped Newton on a stacked plan (see
    :func:`mna.stack`), over the variants marked in ``live``.

    ``x0`` holds one start row per variant.  A variant stops iterating
    once it has converged, so each row comes out as its own run would.
    Returns ``(x, failed)``: the solutions, and the live variants that
    did not converge in ``tol.maxiter`` iterations or whose matrix no
    solve accepted.  Failed and non-live rows keep their ``x0`` row.
    """
    x = x0.copy()
    failed = np.zeros(len(x0), dtype=bool)
    todo = live.copy()
    dx_ok = np.zeros(len(x0), dtype=bool)
    base = mna.stamp_sources(plan, t)
    nv = u.n_nodes
    for _ in range(1 if plan.linear else tol.maxiter):
        sys = mna.assemble(c, u, t, None if plan.linear else x, companions, plan=plan, base=base)
        if dx_ok.any():
            todo &= ~(dx_ok & (node_residual_norm(sys, x, nv) < tol.abstol))
        idx = np.flatnonzero(todo)
        if not len(idx):
            break
        a, b = (sys.a, sys.b) if len(idx) == len(x) else (sys.a[idx], sys.b[idx])
        x_new, bad = _solve_slices(a, b, u.names)
        if bad.any():
            failed[idx[bad]] = True
            todo[idx[bad]] = False
            idx, x_new = idx[~bad], x_new[~bad]
        if plan.linear:
            x[idx] = x_new
            break
        xi = x[idx]
        dx = x_new - xi
        dv = dx[:, :nv]
        np.minimum(np.maximum(dv, -tol.damping, out=dv), tol.damping, out=dv)
        xi += dx
        x[idx] = xi
        dx_ok[idx] = (abs(dv) <= tol.reltol * abs(xi[:, :nv]) + tol.vntol).all(axis=-1)
    else:
        failed |= todo
    x[failed] = x0[failed]
    return x, failed


def _solve_slices(a, b, row_names):
    """``solve_linear`` over a stack, and which slices it could not solve."""
    bad = np.zeros(len(b), dtype=bool)
    try:
        return solve_linear(a, b, row_names), bad
    except SingularMatrixError:
        pass
    x = np.empty(b.shape)
    for k in range(len(b)):
        try:
            x[k] = solve_linear(a[k], b[k], row_names)
        except SingularMatrixError:
            bad[k] = True
    return x, bad
