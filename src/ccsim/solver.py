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

There is one Newton loop, :func:`newton_stack`.  It runs the plain
Newton over K variants of one circuit at once (see :func:`mna.stack`):
one assembly and one stacked LAPACK solve per iteration for all variants
still iterating.  A single circuit is a stack of one, so
:func:`newton_dc` and each rung of :func:`gmin_stepped_dc` are that
loop with K = 1.
"""

from __future__ import annotations

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


class Tolerances:
    __slots__ = ("reltol", "vntol", "abstol", "maxiter", "damping", "gmin_floor")

    def __init__(self, reltol=1e-6, vntol=1e-9, abstol=1e-12, maxiter=100,
                 damping=0.5,  # max per-iteration voltage change, volts
                 gmin_floor=mna.GMIN_FLOOR):
        self.reltol, self.vntol, self.abstol = reltol, vntol, abstol
        self.maxiter, self.damping, self.gmin_floor = maxiter, damping, gmin_floor


class OperatingPoint:
    __slots__ = ("x", "residual_norm", "iterations", "gmin_final")

    def __init__(self, x: np.ndarray, residual_norm: float, iterations: int, gmin_final: float):
        self.x, self.residual_norm = x, residual_norm
        self.iterations, self.gmin_final = iterations, gmin_final


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
        x, errors = _solve_stack(np.asarray(a), np.asarray(b), row_names)
        if errors:
            raise errors[min(errors)]
        return x
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
    """:func:`solve_linear` of each slice of a stack.  Returns the
    solutions and a dict from slice to the :class:`SingularMatrixError`
    of each slice that could not be solved; those rows are zero."""
    if len(a) == 1:
        # the checks on one matrix cost less than their stacked form
        try:
            return solve_linear(a[0], b[0], row_names)[None], {}
        except SingularMatrixError as exc:
            return np.zeros(b.shape), {0: exc}
    try:
        x = np.linalg.solve(a, b[..., None])[..., 0]
        scale = np.abs(b).max(axis=-1, initial=0.0)
        resid = abs((a @ x[..., None])[..., 0] - b).max(axis=-1, initial=0.0)
        ok = (resid <= RESID_TOL * scale) & (abs(x).max(axis=-1, initial=0.0) * PIVOT_TOL <= scale)
    except np.linalg.LinAlgError:
        # one singular slice fails the whole call
        x, ok = np.empty(b.shape), np.zeros(len(b), dtype=bool)
    errors = {}
    if not ok.all():
        for k in np.flatnonzero(~ok):
            try:
                x[k] = solve_linear(a[k], b[k], row_names)
            except SingularMatrixError as exc:
                x[k], errors[k] = 0.0, exc
    return x, errors


def node_residual_norm(sys: mna.MnaSystem, x: np.ndarray, n_nodes: int):
    """Max KCL residual over the node-voltage rows, in amps; one per
    slice of a stacked system."""
    if x.ndim > 1:
        r = (sys.a @ x[..., None])[..., 0] - sys.b
        return abs(r[..., :n_nodes]).max(axis=-1, initial=0.0)
    r = sys.a @ x - sys.b
    return float(abs(r[:n_nodes]).max()) if n_nodes else 0.0


_ONE = np.ones(1, dtype=bool)  # the live mask of a stack of one


def _stack_of_one(plan: mna.StampPlan, x0: np.ndarray, companions):
    """A single circuit's plan, start and companions as a stack of one."""
    if companions is not None:
        companions = tuple(np.reshape(v, (-1, 1)) for v in companions)
    return mna.stack([plan]), x0[None], companions


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
    only the permanent floor.  Each rung is :func:`newton_stack` over a
    stack of one."""
    x0 = np.zeros(u.size) if x0 is None else x0
    plan, x, companions = _stack_of_one(
        plan or mna.compile(c, u, tol.gmin_floor), x0, companions
    )
    total_iters = 0
    g = gmin_start
    while g >= 1e-12 * 0.999:
        x_g, _, its, errors = newton_stack(c, u, tol, t, x, companions, plan, _ONE, g)
        if not errors:  # a failed rung keeps the previous rung's solution
            x, total_iters = x_g, total_iters + int(its[0])
        g /= 10.0
    x, resid, its, errors = newton_stack(c, u, tol, t, x, companions, plan, _ONE)
    if not errors:
        return OperatingPoint(x[0], float(resid[0]), total_iters + int(its[0]), tol.gmin_floor)
    if isinstance(errors[0], ConvergenceError):
        raise ConvergenceError(
            f"no DC convergence even with gmin stepping: {errors[0]}", errors[0].residual
        )
    raise errors[0]


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

    Plain damped Newton first (:func:`newton_stack` over a stack of
    one), restarting with :func:`gmin_stepped_dc` when it fails; with
    ``rescue=False`` the failure is raised instead.  ``companions`` and
    ``plan`` are as in :func:`mna.assemble`; the plan is compiled here
    when not given.  ``iterations`` counts the linear solves.
    """
    tol = tol or Tolerances()
    plan = plan or mna.compile(c, u, tol.gmin_floor)
    x0 = np.zeros(u.size) if x0 is None else x0
    one, x, comp = _stack_of_one(plan, x0, companions)
    x, resid, its, errors = newton_stack(c, u, tol, t, x, comp, one, _ONE)
    if not errors:
        return OperatingPoint(x[0], float(resid[0]), int(its[0]), tol.gmin_floor)
    if not rescue:
        raise errors[0]
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
    gmin_extra: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]:
    """The plain damped Newton, on a stacked plan (see :func:`mna.stack`)
    over the variants marked in ``live``; a single circuit is a stack of
    one.  ``gmin_extra`` is as in :func:`mna.assemble`.

    ``x0`` holds one start row per variant.  A variant stops iterating
    once it has converged, so each row comes out as its own run would.
    Returns ``(x, residual, iterations, errors)``: the solutions, each
    converged variant's KCL residual and number of linear solves, and a
    dict from each live variant that failed to its error.  A variant
    fails with its :class:`SingularMatrixError` when no solve accepts its
    matrix, and with a :class:`ConvergenceError` carrying the KCL
    residual of its last assembled iterate when it has not converged in
    ``tol.maxiter`` solves.  Non-live rows keep their ``x0`` row; the
    rows of failed variants hold no solution.
    """
    x = x0.copy()
    n_var = len(x0)
    todo = live.copy()
    idx = todo.nonzero()[0]
    dx_ok = np.zeros(n_var, dtype=bool)
    resid = np.zeros(n_var)
    its = np.zeros(n_var, dtype=np.intp)
    errors = {}
    base = mna.stamp_sources(plan, t)
    nv = u.n_nodes
    linear = plan.linear
    last = tol.maxiter - 1  # its residual is the one a non-converged variant reports
    # np.count_nonzero and .nonzero() cost less than .any() and np.flatnonzero
    for it in range(1 if linear else tol.maxiter):
        sys = mna.assemble(c, u, t, None if linear else x, companions, gmin_extra, plan=plan, base=base)
        if it == last or np.count_nonzero(dx_ok):
            resid = node_residual_norm(sys, x, nv)
            done = dx_ok & (resid < tol.abstol)
            n_done = np.count_nonzero(done)
            if n_done:
                its[done] = it
                if n_done == len(idx):  # every variant still iterating
                    break
                todo ^= done
                idx = todo.nonzero()[0]
                dx_ok &= todo
        full = len(idx) == n_var
        x_new, bad = _solve_stack(sys.a if full else sys.a[idx], sys.b if full else sys.b[idx], u.names)
        if linear:
            x[idx], its[idx] = x_new, 1
            resid = node_residual_norm(sys, x, nv)
        else:
            xi = x if full else x[idx]
            dx = x_new - xi
            dv = dx[:, :nv]
            # clip to +-damping in place (np.clip's wrapper costs more than the work)
            np.minimum(np.maximum(dv, -tol.damping, out=dv), tol.damping, out=dv)
            xi = xi + dx
            ok = (abs(dv) <= tol.reltol * abs(xi[:, :nv]) + tol.vntol).all(axis=-1)
            if full:
                x, dx_ok = xi, ok
            else:
                x[idx], dx_ok[idx] = xi, ok
        if bad:
            rows = idx[list(bad)]
            errors.update(zip(rows.tolist(), bad.values()))
            todo[rows] = dx_ok[rows] = False
            idx = todo.nonzero()[0]
        if linear or not len(idx):
            break
    else:
        for k in idx.tolist():
            errors[k] = ConvergenceError(
                f"Newton did not converge in {tol.maxiter} iterations "
                f"(last KCL residual {resid[k]:.3e} A)",
                residual=float(resid[k]),
            )
    return x, resid, its, errors
