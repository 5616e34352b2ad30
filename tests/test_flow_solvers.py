"""The flow-polytope solvers held bit for bit to plain reference loops, and
their line-search stalls.

``_loop_newton`` and ``_loop_projection`` rebuild the KKT matrix, the
same-star pattern and the free incidence rows in every iteration and
evaluate the objective (Newton) or the flow and dual value (projection)
at the accepted step a second time, as the solvers once did.  The solvers
of ``comblab.proximal`` must return the same bits: ``x`` by ``tobytes`` and
an equal ``info``, or the same failure with the same payload.
"""

import warnings

import numpy as np
import pytest

import comblab as cl
from comblab.errors import SolverFailure
from comblab.instances import random_feasible_loss, random_layered_dag
from comblab.proximal import flow_prox_newton, sinkhorn_flow_projection
from comblab.regularizers import (DilatedEntropy, NegativeEntropy,
                                  Regularizer, uniform_path_flow)
from comblab.sampling import RngStream


def _loop_armijo(value_at, base, slope, alpha, stalled, halvings):
    if abs(slope) > 1e-12 * (1.0 + abs(base)):
        while not value_at(alpha) <= base + 1e-4 * alpha * slope:
            alpha *= 0.5
            halvings.append(1)
            if alpha <= 1e-16:
                raise stalled
    return alpha


def _loop_hessian(reg, x):
    if not isinstance(reg, DilatedEntropy):
        return reg.hessian_matrix(x)
    tails = reg.dag.compiled.tails
    same_star = (tails[:, None] == tails) & (tails != reg.dag.sink)[:, None]
    h = np.diag(1.0 / x)
    h -= same_star / reg.dag.vertex_loads(x)[tails][:, None]
    return h


def _loop_newton(dag, reg, x_start, linear, halvings):
    a_mat, b_vec, a_ls = dag.flow_system
    n_edges, n_rows = dag.n_edges, a_mat.shape[0]
    x = np.asarray(x_start, dtype=float).copy()
    linear = np.asarray(linear, dtype=float)
    kkt = np.zeros((n_edges + n_rows, n_edges + n_rows))
    kkt[:n_edges, n_edges:] = a_mat.T
    kkt[n_edges:, :n_edges] = a_mat
    rhs = np.zeros(n_edges + n_rows)

    def objective(pt):
        return float(linear @ pt) + reg.value(pt)

    residual = np.inf
    for iteration in range(500):
        reg_grad = reg.grad(x)
        grad = linear + reg_grad
        residual = max(float(np.max(np.abs(grad - a_mat.T @ (a_ls @ grad)))),
                       float(np.max(np.abs(a_mat @ x - b_vec))))
        if residual <= 1e-10:
            return x, {"residual": residual, "iterations": iteration,
                       "grad": reg_grad}
        kkt[:n_edges, :n_edges] = _loop_hessian(reg, x)
        rhs[:n_edges] = -grad
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            kkt[:n_edges, :n_edges] += 1e-12 * np.eye(n_edges)
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        p = sol[:n_edges]
        neg = p < 0
        alpha = min(1.0, 0.995 * float(np.min(x[neg] / -p[neg], initial=np.inf)))
        alpha = _loop_armijo(
            lambda a: objective(x + a * p) if (x + a * p).min() > 0 else np.inf,
            objective(x), float(grad @ p), alpha,
            SolverFailure("flow Newton line search stalled",
                          residual=residual, iterations=iteration), halvings)
        x = x + alpha * p
    raise SolverFailure("flow Newton did not reach tolerance",
                        residual=residual, iterations=500)


def _loop_projection(dag, log_w, halvings):
    log_w = np.asarray(log_w, dtype=float)
    tails, heads = dag.compiled.tails, dag.compiled.heads
    free = np.arange(dag.n_vertices) != dag.sink
    inc = dag.incidence[free]
    log_z, _ = dag.semiring_pass(log_w, np.logaddexp)
    nu = np.where(np.isfinite(log_z), -log_z, 0.0)

    def flow_and_dual(pot):
        x = np.exp(log_w + pot[tails] - pot[heads])
        return x, float(np.add.reduce(x)) - pot[dag.source]

    x, base = flow_and_dual(nu)
    residual = np.inf
    for iteration in range(100):
        excess = dag.flow_excess(x)
        residual = max(float(np.max(np.abs(excess))),
                       float(np.max(np.maximum(-x, x - 1.0), initial=0.0)))
        if residual <= 1e-10:
            return x, {"residual": residual, "iterations": iteration}
        grad = excess[free]
        hess = (inc * x) @ inc.T
        step = np.zeros(dag.n_vertices)
        try:
            step[free] = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step[free] = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        nu += _loop_armijo(lambda a: flow_and_dual(nu + a * step)[1], base,
                           float(grad @ step[free]), 1.0,
                           SolverFailure("entropy projection line search stalled",
                                         residual=residual, iterations=iteration),
                           halvings) * step
        x, base = flow_and_dual(nu)
    raise SolverFailure("entropy projection did not reach tolerance",
                        residual=residual, iterations=100)


def _outcome(solve, *args):
    """``(x, info)`` of a solve with every array as bytes, or its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow in a failing solve
            x, info = solve(*args)
    except (cl.ComblabError, np.linalg.LinAlgError) as err:
        # repr, so that a NaN residual equals itself
        return None, (type(err), str(err), repr(getattr(err, "residual", None)),
                      getattr(err, "iterations", None))
    if "log_x" in info:  # the exponent that gives x
        assert np.exp(info.pop("log_x")).tobytes() == x.tobytes()
    return x, (x.tobytes(), {key: val.tobytes() if key == "grad" else val
                             for key, val in info.items()})


def _graphs():
    dags = [random_layered_dag(RngStream(52, i), max_edges=14, max_layers=4)
            for i in range(12)]
    dags.append(cl.build_set("multitask:2,3,4").path_embedding[0])
    dags.append(cl.build_set("dag-layered:64:4096").dag)
    return dags


def _same_steps(dag, reg, eta, rounds, rng, halvings):
    """A numeric dilated or entropy learner's proximal steps, solved by both
    Newtons from the loop's iterates; the number of steps taken."""
    dset = cl.DagPathSet(dag)
    x = uniform_path_flow(dag)
    for t in range(rounds):
        y = random_feasible_loss(dset, rng)
        if isinstance(reg, DilatedEntropy):
            linear = eta * y - reg.grad(x)
        else:
            linear = eta * cl.shift_losses(dag, y)[0] - np.log(x)
        want = _outcome(_loop_newton, dag, reg, x, linear, halvings)
        assert _outcome(flow_prox_newton, dag, reg, x, linear)[1] == want[1]
        if want[0] is None:
            return t
        x = want[0]
    return rounds


@pytest.mark.parametrize("make_reg",
                         [DilatedEntropy, lambda dag: NegativeEntropy()],
                         ids=["dilated", "entropy"])
def test_flow_newton_keeps_its_bits(make_reg):
    # Learner-like steps at a small rate and at a rate where the line
    # search halves and some solves fail (those must fail alike).
    halvings, steps = [], 0
    for i, dag in enumerate(_graphs()):
        for eta in (0.5, 20.0):
            steps += _same_steps(dag, make_reg(dag), eta, 12,
                                 RngStream(53, i, int(eta)), halvings)
    assert steps > 200
    if make_reg is DilatedEntropy:
        assert len(halvings) > 10


def test_entropy_projection_keeps_its_bits():
    halvings, steps = [], 0
    for i, dag in enumerate(_graphs()):
        dset = cl.DagPathSet(dag)
        for eta in (0.5, 30.0):
            rng = RngStream(54, i, int(eta))
            log_x = np.zeros(dag.n_edges)
            for _ in range(12):
                y = random_feasible_loss(dset, rng)
                log_w = log_x - eta * cl.shift_losses(dag, y)[0]
                want = _outcome(_loop_projection, dag, log_w, halvings)
                assert _outcome(sinkhorn_flow_projection, dag, log_w)[1] == want[1]
                if want[0] is None:
                    break
                with np.errstate(divide="ignore"):
                    log_x = np.log(want[0])
                steps += 1
    # the least-squares route: every weight at vertex 2 is zero
    dead = cl.Dag(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (1, 3)],
                  0, 4)
    log_w = np.array([0.3, -np.inf, -1.0, 0.5, -np.inf, 0.2, -0.4])
    assert _outcome(sinkhorn_flow_projection, dead, log_w)[1] == _outcome(
        _loop_projection, dead, log_w, halvings)[1]
    # vertex 2 reaches no sink, so its inflow must die out: at such weights
    # the line search halves before the step is taken
    stray = cl.Dag(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (3, 4), (0, 1),
                       (3, 4)], 0, 4)
    before = len(halvings)
    for seed in range(20):
        log_w = 60.0 * RngStream(51, seed).generator.standard_normal(8)
        assert _outcome(sinkhorn_flow_projection, stray, log_w)[1] == _outcome(
            _loop_projection, stray, log_w, halvings)[1]
    assert steps > 300 and len(halvings) > before


# ---------------------------------------------------------------------------
# line-search stalls
# ---------------------------------------------------------------------------

class _Rising(Regularizer):
    """Negative entropy, but for a value that rises by 1e12 at every
    evaluation: the Newton direction is the entropy's, and no step along
    it ever makes the Armijo decrease."""

    def __init__(self):
        self.calls = 0
        self._entropy = NegativeEntropy()

    def value(self, x):
        self.calls += 1
        return 1e12 * self.calls

    def grad(self, x):
        return self._entropy.grad(x)

    def hessian_matrix(self, x):
        return self._entropy.hessian_matrix(x)


def test_flow_newton_line_search_stall_keeps_its_payload():
    dag = cl.build_set("dag-layered:16:32").dag
    x = uniform_path_flow(dag)
    linear = RngStream(55, 0).generator.standard_normal(dag.n_edges)
    with pytest.raises(SolverFailure, match="^flow Newton line search stalled$"
                       ) as err:
        flow_prox_newton(dag, _Rising(), x, linear)
    assert err.value.iterations == 0
    assert 1e-10 < err.value.residual < np.inf


def test_entropy_projection_line_search_stall_keeps_its_payload():
    # No path joins the source to the sink (vertex 2 is a dead end, vertex
    # 3 feeds the sink), so no unit flow exists.  At the third step the
    # Newton system is singular to working precision, its solve returns an
    # ascent direction, and the dual value rises at every alpha down to
    # 1e-16.
    dag = cl.Dag(5, [(0, 1), (1, 2), (0, 1), (3, 4)], 0, 4)
    with pytest.raises(SolverFailure,
                       match="^entropy projection line search stalled$"
                       ) as err:
        sinkhorn_flow_projection(dag, np.zeros(4))
    assert err.value.iterations == 2
    assert 1e-10 < err.value.residual < np.inf


def test_flow_newton_kkt_failure_keeps_its_payload():
    # A step of 30 standard normals drives this graph's iterate out of the
    # float range: at iteration 134 the slope is NaN, the step is taken as
    # is, and the KKT matrix fills with NaN.  Its least-squares fallback
    # then fails inside LAPACK; that must reach the caller as a
    # SolverFailure with its payload, not as numpy's LinAlgError.
    dag = random_layered_dag(RngStream(9, 37), max_edges=16, max_layers=4)
    linear = 30 * RngStream(9, 137).generator.standard_normal(dag.n_edges)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow in 1 / x
        with pytest.raises(SolverFailure, match="no least-squares solution"
                           ) as err:
            flow_prox_newton(dag, DilatedEntropy(dag), uniform_path_flow(dag),
                             linear)
    assert err.value.iterations == 136
    assert err.value.residual is not None  # NaN, as the iterate is
