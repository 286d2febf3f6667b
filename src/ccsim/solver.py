"""Linear solves and the DC operating point.

There is one linear solve, :func:`_solve_stack`: a stack of matrices
in one LAPACK call (one matrix is a stack of one) and one acceptance
check per slice.  Only a refused slice reaches the diagnostic, a
hand-written dense LU with partial pivoting: a pivot smaller than 1e-13
aborts with the name of the unknown whose column lost rank, almost
always a floating node or a loop of voltage sources.
:func:`solve_linear` is its raising wrapper.

The Newton loop damps per-iteration voltage changes, and a gmin ladder
(1e-3 S stepped down by decades to 1e-12 S) rescues cold starts that
plain iteration cannot.  A permanent gmin floor from every node to
ground is always stamped, so deliberately floating nodes (for example
an unused conveyor Z terminal) stay solvable without special cases.
The Newton loop evaluates no source: it stamps a given column of the
sources' samples once per call.

There is one Newton loop, :func:`newton_stack`.  It runs the plain
Newton over K circuits at once, laid out as one stack (see
:func:`mna.stack`): one assembly and one stacked LAPACK solve per
iteration for all circuits still iterating.  A single circuit is a
stack of one, so :func:`newton_dc` and each rung of
:func:`gmin_stepped_dc` are that loop with K = 1.  Every solve takes a
compiled plan (see :func:`mna.compile`), never a circuit.
"""

from __future__ import annotations

import numpy as np

from . import mna
from .devices import Record

PIVOT_TOL = 1e-13
RESID_TOL = 1e-9
DAMPING = 0.5  # largest node-voltage change per Newton iteration, volts


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


class Tolerances(Record):
    reltol: float = 1e-6
    vntol: float = 1e-9
    abstol: float = 1e-12
    maxiter: int = 100
    gmin_floor: float = mna.GMIN_FLOOR


class OperatingPoint:
    __slots__ = ("x", "residual_norm", "iterations")

    def __init__(self, x: np.ndarray, residual_norm: float, iterations: int):
        self.x, self.residual_norm, self.iterations = x, residual_norm, iterations


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

    ``a`` is one matrix, or a stack of shape (K, n, n) with ``b`` of
    shape (K, n), or (K, n, m) for m columns per slice; one matrix is a
    stack of one.  Each slice is solved and judged by :func:`_solve_stack`;
    the error of the first slice that fails is raised.
    """
    one = np.ndim(a) == 2
    a, b = np.asarray(a), np.asarray(b)
    x, errors = _solve_stack(a[None] if one else a, b[None] if one else b, row_names)
    if errors:
        raise errors[min(errors)]
    return x[0] if one else x


def _solve_stack(a, b, row_names):
    """Solve each slice of a stack by one LAPACK call.

    A slice's x is kept when it reproduces b to RESID_TOL of b's largest
    entry (a non-finite x never does) and is not so large that only a
    pivot under PIVOT_TOL could make it from b.  Otherwise the hand LU
    solves that slice again; its :class:`SingularMatrixError` names the
    unknown through ``row_names`` (the unknown map's display names).
    Returns the solutions and a dict from slice to the error of each
    slice that could not be solved; those rows are zero."""
    columns = b if b.ndim == 3 else b[..., None]  # each slice's right-hand sides as columns
    try:
        x = np.linalg.solve(a, columns)
    except np.linalg.LinAlgError:
        if len(a) > 1:  # one exactly singular slice fails the whole call
            parts = [_solve_stack(a[k : k + 1], b[k : k + 1], row_names) for k in range(len(a))]
            return np.concatenate([x for x, _ in parts]), {k: e[0] for k, (_, e) in enumerate(parts) if e}
        x = np.full(columns.shape, np.nan)  # fails the acceptance check below
    scale = np.abs(columns).max(axis=(1, 2), initial=0.0)
    resid = abs(a @ x - columns).max(axis=(1, 2), initial=0.0)
    ok = (resid <= RESID_TOL * scale) & (abs(x).max(axis=(1, 2), initial=0.0) * PIVOT_TOL <= scale)
    x = x.reshape(b.shape)
    errors = {}
    for k in (~ok).nonzero()[0].tolist():
        try:
            x[k] = lu_solve(lu_factor(a[k]), b[k])
        except SingularMatrixError as exc:
            name = None if row_names is None else row_names[exc.column]
            x[k], errors[k] = 0.0, SingularMatrixError(exc.column, name)
    return x, errors


def node_residual_norm(sys: mna.MnaSystem, x: np.ndarray, n_nodes: int) -> np.ndarray:
    """Max KCL residual over the node-voltage rows, in amps, of each
    slice of a stacked system."""
    r = (sys.a @ x[..., None])[..., 0] - sys.b
    return abs(r[..., :n_nodes]).max(axis=-1, initial=0.0)


_ONE = np.ones(1, dtype=bool)  # the live mask of a stack of one


def gmin_stepped_dc(
    plan: mna.StampPlan,
    tol: Tolerances,
    column: np.ndarray,
    x0: np.ndarray,
    companions=None,
    gmin_start: float = 1e-3,
) -> OperatingPoint:
    """Homotopy fallback for one circuit's own compiled ``plan``, a stack
    of one: extra conductances from every node to ground, stepped down
    by decades from ``gmin_start`` to 1e-12 S, starting from ``x0`` and
    reusing each rung's solution as the next initial guess, then a final
    solve with only the permanent floor.  Each rung is
    :func:`newton_stack` over ``plan`` that stamps ``column``, the
    rescued point's own column of the plan's source samples;
    ``companions`` are the circuit's own (geq, ieq) arrays, as in
    :func:`mna.assemble`."""
    x = x0[None]
    total_iters = 0
    g = gmin_start
    while g >= 1e-12 * 0.999:
        x_g, _, its, errors = newton_stack(plan, tol, column, x, companions, _ONE, g)
        if not errors:  # a failed rung keeps the previous rung's solution
            x, total_iters = x_g, total_iters + int(its[0])
        g /= 10.0
    x, resid, its, errors = newton_stack(plan, tol, column, x, companions, _ONE)
    if not errors:
        return OperatingPoint(x[0], float(resid[0]), total_iters + int(its[0]))
    if isinstance(errors[0], ConvergenceError):
        raise ConvergenceError(
            f"no DC convergence even with gmin stepping: {errors[0]}", errors[0].residual
        )
    raise errors[0]


def newton_dc(
    plan: mna.StampPlan,
    tol: Tolerances | None = None,
    column: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> OperatingPoint:
    """Find the DC solution of one circuit's compiled ``plan`` (see
    :func:`mna.compile`) with its sources at ``column``, one column of
    ``plan.sources.samples``; at t = 0 when it is not given.

    Plain damped Newton first (:func:`newton_stack` over ``plan``, a
    stack of one), restarting with :func:`gmin_stepped_dc` from the same
    start when it fails; the gmin floor is the one ``plan`` was compiled
    with.  ``iterations`` counts the linear solves.
    """
    tol = tol or Tolerances()
    x0 = np.zeros(plan.u.size) if x0 is None else x0
    column = plan.sources.values(0.0) if column is None else column
    x, resid, its, errors = newton_stack(plan, tol, column, x0[None], None, _ONE)
    if not errors:
        return OperatingPoint(x[0], float(resid[0]), int(its[0]))
    return gmin_stepped_dc(plan, tol, column, x0)


def newton_stack(
    plan: mna.StampPlan,
    tol: Tolerances,
    column: np.ndarray,
    x0: np.ndarray,
    companions,
    live: np.ndarray,
    gmin_extra: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, Exception]]:
    """The plain damped Newton, on a stacked plan (see :func:`mna.stack`)
    over the circuits marked in ``live``; a single circuit is a stack of
    one.  ``column`` is the stack's sources at the solve's time, one
    column of ``plan.sources.samples``; the loop evaluates no source
    itself.  ``companions`` and ``gmin_extra`` are as in
    :func:`mna.assemble`, and errors name unknowns by ``plan.u``.

    ``x0`` holds one start row per circuit.  A circuit stops iterating
    once it has converged, so each row comes out as its own run would:
    to the last bit when the stack did not pad it, to round-off when it
    did.  Returns ``(x, residual, iterations, errors)``: the solutions,
    each converged circuit's KCL residual and number of linear solves,
    and a dict from each live circuit that failed to its error.  A
    circuit fails with its :class:`SingularMatrixError` when no solve
    accepts its matrix, and with a :class:`ConvergenceError` carrying
    the KCL residual of its last assembled iterate when it has not
    converged in ``tol.maxiter`` solves.  Non-live rows keep their
    ``x0`` row; the rows of failed circuits hold no solution.
    """
    x = x0.copy()
    n_var = len(x0)
    todo = live.copy()
    idx = todo.nonzero()[0]
    dx_ok = np.zeros(n_var, dtype=bool)
    resid = np.zeros(n_var)
    its = np.zeros(n_var, dtype=np.intp)
    errors = {}
    base = mna.stamp_sources(plan, column)
    nv = plan.u.n_nodes
    linear = plan.linear
    last = tol.maxiter - 1  # its residual is the one a non-converged circuit reports
    # np.count_nonzero and .nonzero() cost less than .any() and np.flatnonzero
    for it in range(1 if linear else tol.maxiter):
        sys = mna.assemble(plan, base, None if linear else x, companions, gmin_extra)
        if it == last or np.count_nonzero(dx_ok):
            resid = node_residual_norm(sys, x, nv)
            done = dx_ok & (resid < tol.abstol)
            n_done = np.count_nonzero(done)
            if n_done:
                its[done] = it
                if n_done == len(idx):  # every circuit still iterating
                    break
                todo ^= done
                idx = todo.nonzero()[0]
                dx_ok &= todo
        full = len(idx) == n_var
        x_new, bad = _solve_stack(sys.a if full else sys.a[idx], sys.b if full else sys.b[idx], plan.u.names)
        if linear:
            x[idx], its[idx] = x_new, 1
            resid = node_residual_norm(sys, x, nv)
        else:
            xi = x if full else x[idx]
            dx = x_new - xi
            dv = dx[:, :nv]
            # clip to +-DAMPING in place (np.clip's wrapper costs more than the work)
            np.minimum(np.maximum(dv, -DAMPING, out=dv), DAMPING, out=dv)
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
