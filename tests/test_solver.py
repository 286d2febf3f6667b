import re

import numpy as np
import pytest

from ccsim import mna
from ccsim.mna import assemble, index_unknowns
from ccsim.netlist import parse_and_flatten
from ccsim.solver import (
    ConvergenceError,
    SingularMatrixError,
    Tolerances,
    newton_dc,
    solve_linear,
)

from conftest import behavioral_amp


# ----------------------------------------------------------------------
# independent linear-algebra oracle: cofactor-expansion determinant and
# Cramer's rule, no numpy.linalg anywhere
# ----------------------------------------------------------------------

def det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += ((-1) ** j) * m[0][j] * det_cofactor(minor)
    return total


def cramer_solve(a, b):
    m = [list(row) for row in a]
    d = det_cofactor(m)
    out = []
    for j in range(len(b)):
        mj = [row[:j] + [b[i]] + row[j + 1 :] for i, row in enumerate(m)]
        out.append(det_cofactor(mj) / d)
    return np.array(out)


def test_hand_gaussian_elimination_case():
    x = solve_linear(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], rtol=1e-12)


def test_identity():
    b = np.array([3.0, -1.0, 7.0])
    assert np.array_equal(solve_linear(np.eye(3), b), b)


def test_duplicate_rows_singular():
    a = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(SingularMatrixError):
        solve_linear(a, np.array([1.0, 1.0]))


def test_singular_names_unknown():
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    with pytest.raises(SingularMatrixError, match=r"v\(out\)"):
        solve_linear(a, np.zeros(2), row_names=["v(in)", "v(out)"])


def test_matches_cramer_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_linear(a.copy(), b.copy())
        ref = cramer_solve(a.tolist(), b.tolist())
        assert np.allclose(x, ref, rtol=1e-9, atol=1e-12)


# ----------------------------------------------------------------------
# Newton
# ----------------------------------------------------------------------

def test_linear_divider_single_iteration():
    c = parse_and_flatten("t\nV1 a 0 DC 1\nR1 a m 1k\nR2 m 0 1k\n.end\n")
    u = index_unknowns(c)
    op = newton_dc(c, u)
    assert op.iterations == 1
    assert op.x[u.node_row(c.nodes["m"])] == pytest.approx(0.5, rel=1e-9)
    assert op.residual_norm < 1e-12


def bisect(f, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_diode_connected_nmos_matches_bisection_oracle():
    # scalar oracle on (beta/2)(v-vth)^2 = (1-v)/R, solved before the sim
    beta, vth, r = 2e-4, 0.4, 1e4
    v_ref = bisect(lambda v: 0.5 * beta * (v - vth) ** 2 - (1 - v) / r, vth, 1.0)
    assert v_ref == pytest.approx(0.8219544457, abs=1e-9)

    c = parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4\nV1 t 0 DC 1\nR1 t d 10k\nM1 d d 0 0 nm\n.end\n"
    )
    u = index_unknowns(c)
    op = newton_dc(c, u)
    assert op.x[u.node_row(c.nodes["d"])] == pytest.approx(v_ref, abs=1e-7)


def test_diode_newton_current_closed_form():
    # diode-connected device driven at a stiff 0.9 V: i = (beta/2)(0.5)^2
    c = parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4\nV1 d 0 DC 0.9\nM1 d d 0 0 nm\n.end\n"
    )
    u = index_unknowns(c)
    op = newton_dc(c, u)
    i_branch = op.x[u.branch_row("v1")]
    assert -i_branch == pytest.approx(2.5e-5, rel=1e-9)


def test_amplifier_dc_gain_100():
    c = behavioral_amp(rx=0.0)
    # replace the sine input with a 10 mV DC drive via a netlist of its own
    c = parse_and_flatten(
        "t\nvin in 0 DC 0.01\nu1 in x out cccii+ rx=0.0\nr1 x 0 1k\nr2 out 0 100k\n.end\n"
    )
    u = index_unknowns(c)
    op = newton_dc(c, u)
    assert op.x[u.node_row(c.nodes["out"])] == pytest.approx(1.0, rel=1e-6)


def test_converged_residual_reassembles_small():
    c = parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4 lambda=0.05\n"
        "V1 t 0 DC 1\nR1 t d 10k\nM1 d d 0 0 nm\n.end\n"
    )
    u = index_unknowns(c)
    tol = Tolerances()
    op = newton_dc(c, u, tol)
    sys = assemble(c, u, 0.0, x_est=op.x)
    resid = np.max(np.abs((sys.a @ op.x - sys.b)[: u.n_nodes]))
    assert resid < tol.abstol
    assert op.residual_norm < tol.abstol


def test_gmin_ladder_start_independent():
    from ccsim.library import AmplifierConfig, TranslinearConveyor, emit_example
    from ccsim.solver import gmin_stepped_dc

    tol = Tolerances()
    for name, family in (("cccii_char", "cccii"), ("proposed_amp_translinear", "cccii")):
        text = emit_example(
            name, AmplifierConfig(conveyor=TranslinearConveyor(ib=50e-6, family=family, rails=1.5))
        )
        c = parse_and_flatten(text)
        u = index_unknowns(c)
        xs = [gmin_stepped_dc(c, u, tol, gmin_start=start).x for start in (1e-3, 1e-4)]
        dv = np.max(np.abs(xs[0][: u.n_nodes] - xs[1][: u.n_nodes]))
        assert dv < 10 * tol.vntol


def test_nonconvergence_reported():
    c = parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4\nV1 d 0 DC 0.9\nM1 d d 0 0 nm\n.end\n"
    )
    u = index_unknowns(c)
    # one iteration is never enough for a nonlinear circuit: the damped
    # update must be confirmed by a second pass, so the ladder gives up too
    with pytest.raises(ConvergenceError):
        newton_dc(c, u, Tolerances(maxiter=1))


def _translinear(name):
    from ccsim.library import AmplifierConfig, TranslinearConveyor, emit_example

    cell = TranslinearConveyor(ib=50e-6, family="cccii", rails=1.5)
    return parse_and_flatten(emit_example(name, AmplifierConfig(conveyor=cell)))


@pytest.mark.parametrize("circuit, iterations", [
    (lambda: parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4\nV1 t 0 DC 1\nR1 t d 10k\nM1 d d 0 0 nm\n.end\n"
    ), 6),
    (lambda: _translinear("proposed_amp_translinear"), 11),
    (lambda: _translinear("cccii_char"), 11),
], ids=["diode", "proposed_amp_translinear", "cccii_char"])
def test_newton_iteration_count_is_pinned(circuit, iterations):
    # the number of linear solves the plain damped Newton takes from zero
    c = circuit()
    op = newton_dc(c, index_unknowns(c))
    assert type(op.iterations) is int
    assert op.iterations == iterations


@pytest.mark.parametrize("rescue, prefix", [
    (True, "no DC convergence even with gmin stepping: "), (False, ""),
])
def test_nonconvergence_message_and_residual(rescue, prefix):
    # at x = 0 the diode carries no current, so the KCL residual of the
    # last assembled iterate (the start) is exactly zero
    c = parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4\nV1 d 0 DC 0.9\nM1 d d 0 0 nm\n.end\n"
    )
    with pytest.raises(ConvergenceError) as info:
        newton_dc(c, index_unknowns(c), Tolerances(maxiter=1), rescue=rescue)
    assert str(info.value) == (
        prefix + "Newton did not converge in 1 iterations (last KCL residual 0.000e+00 A)"
    )
    assert info.value.residual == 0.0


def test_nonconvergence_reports_the_last_iterate_residual():
    # the first solve gives v(d) = 0.9 V and i(v1) = -0.9 V * 1e-12 S
    # (the gmin floor); the step is damped to v(d) = 0.5 V, where the
    # square law carries (2e-4/2) * (0.5 - 0.4)**2 = 1e-6 A, and the
    # floor 0.5e-12 A: that iterate is the last one assembled
    c = parse_and_flatten(
        "t\n.model nm nmos vth=0.4 beta=2e-4\nV1 d 0 DC 0.9\nM1 d d 0 0 nm\n.end\n"
    )
    with pytest.raises(ConvergenceError, match=r"last KCL residual 1\.000e-06 A") as info:
        newton_dc(c, index_unknowns(c), Tolerances(maxiter=2), rescue=False)
    assert info.value.residual == pytest.approx(1e-4 * 0.1**2 - 0.9e-12 + 0.5e-12, rel=1e-9)


# ----------------------------------------------------------------------
# the singular diagnostic names the unknown, whichever solver ran
# ----------------------------------------------------------------------

VSOURCE_LOOP = "t\nV1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n.end\n"


def test_vsource_loop_names_branch_unknown():
    c = parse_and_flatten(VSOURCE_LOOP)
    with pytest.raises(SingularMatrixError, match=r"i\(v[12]\)"):
        newton_dc(c, index_unknowns(c))


def test_vsource_loop_cli_exit_code(tmp_path, capsys):
    from ccsim.cli import EXIT_CONVERGENCE, main

    p = tmp_path / "loop.cir"
    p.write_text(VSOURCE_LOOP)
    assert main(["op", str(p)]) == EXIT_CONVERGENCE
    assert re.search(r"i\(v[12]\)", capsys.readouterr().err)


def test_near_singular_finite_answer_still_raises():
    # the second pivot is 1.1e-15: LAPACK returns a finite x of order
    # 1e15 with a zero residual, the pivot scan refuses it
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    b = np.array([1.0, 0.0])
    assert np.all(np.isfinite(np.linalg.solve(a, b)))
    with pytest.raises(SingularMatrixError, match=r"v\(q\)"):
        solve_linear(a, b, row_names=["v(p)", "v(q)"])


def test_stacked_solve_matches_each_slice(rng):
    a = rng.normal(size=(5, 4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=(5, 4))
    x = solve_linear(a, b)
    for k in range(5):
        assert np.array_equal(x[k], solve_linear(a[k], b[k]))
    # a refused slice is solved again on its own: the near-singular pair
    # raises, as it does alone; an exactly singular one too
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    for bad in (near, np.array([[1.0, 2.0], [1.0, 2.0]])):
        stack = np.stack([np.eye(2), bad, 2 * np.eye(2)])
        with pytest.raises(SingularMatrixError, match=r"v\(q\)"):
            solve_linear(stack, np.array([[1.0, 0.0]] * 3), row_names=["v(p)", "v(q)"])
