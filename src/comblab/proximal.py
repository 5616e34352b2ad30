"""Proximal-step solvers behind the mirror-descent learners.

* :func:`mset_prox` -- the m-set step: one scalar dual variable for the
  cardinality constraint, per-coordinate solves in closed form through the
  Wright omega function, box handling by clipping with complementary
  slackness.
* :func:`flow_prox_newton` -- damped Newton on the equality-constrained
  KKT system over a flow polytope.  Used as the numeric oracle that keeps
  the fast weight-pushing path honest, and as the cross-check for the
  entropy projection.  The constraint system and its least-squares
  multiplier operator are fixed per DAG and built once
  (:attr:`Dag.flow_system`); each step costs one dense KKT solve.
* :func:`sinkhorn_flow_projection` -- Bregman projection (negative
  entropy) onto the flow polytope by damped Newton on the dual over vertex
  potentials.
"""

import functools

import numpy as np

from .domain import flow_residual
from .errors import SolverFailure

SUM_TOL = 1e-12
MAX_OUTER = 500
SOLVER_TOL = 1e-10
NEWTON_MAX_ITER = 500
PROJECTION_MAX_ITER = 100
_mset_prox_compiled = None  # perfbench/run.py reads it for the "backend" field


# ---------------------------------------------------------------------------
# m-set proximal step
# ---------------------------------------------------------------------------
#
# The step solves  min_x  <step, x> + D_phi(x || x_old)  over the scaled
# simplex {0 <= x <= 1, sum x = m} with phi the m-set regularizer.  With
# g(x) = 2x + (ln x + 1)/m the stationarity condition reads
#     g(x_i) = c_i - lam,      c_i = g(x_old_i) - step_i,
# clipped at the box: x_i = 1 whenever c_i - lam >= g(1).  Coordinates never
# reach 0 because g -> -inf there (in floating point they may underflow).
# The per-coordinate equation g(x) = t has a closed form: with w = 2m x it
# reads  w + ln w = m t - 1 + ln(2m),  so  w = omega(m t - 1 + ln(2m))  with
# omega the Wright omega function (Corless & Jeffrey, 2002).  The outer
# scalar equation sum x(lam) = m is solved by safeguarded Newton (or
# bisection, kept as the reference mode).

@functools.cache
def scipy_wrightomega():
    """``scipy.special.wrightomega``, imported on the first call.

    scipy.special takes about 0.4 s to import and only the m-set step uses
    it, so a run without that step does not load it.  :class:`MSetOmd`
    calls this when it is built, so that building the learner pays for the
    import, not its first step.
    """
    from scipy.special import wrightomega
    return wrightomega


def _solve_coords_numpy(t, m):
    """Solve 2x + (ln x + 1)/m = t per coordinate for t <= g(1); x <= 1."""
    two_m = 2.0 * m
    return np.minimum(scipy_wrightomega()(m * t + (np.log(two_m) - 1.0))
                      / two_m, 1.0)


def mset_prox(x_old, step, m, lam_init=0.0, method="newton"):
    """The m-set proximal step.

    Parameters
    ----------
    x_old : interior point of the polytope (all coordinates in (0, 1]).
    step : learning-rate-scaled loss vector (eta * y).
    m : cardinality of the set.
    lam_init : warm start for the scalar dual variable.
    method : "newton" (safeguarded) or "bisect" (pure bisection reference).

    Returns
    -------
    (x, lam) with ``|sum(x) - m| <= SUM_TOL``; raises :class:`SolverFailure`
    after ``MAX_OUTER`` outer steps.
    """
    x_old = np.asarray(x_old, dtype=float)
    step = np.asarray(step, dtype=float)
    c = 2.0 * x_old + (np.log(x_old) + 1.0) / m - step
    g_at_one = 2.0 + 1.0 / m

    lam = float(lam_init)
    lo = hi = None  # s(lo) > 0 > s(hi); s is decreasing in lam
    for _ in range(MAX_OUTER):
        t = np.minimum(c - lam, g_at_one)
        x = _solve_coords_numpy(t, m)
        s = float(np.add.reduce(x)) - m
        if abs(s) <= SUM_TOL:
            return x, lam
        if s > 0:
            lo = lam
        else:
            hi = lam
        if method == "bisect" and lo is not None and hi is not None:
            lam = 0.5 * (lo + hi)
            continue
        uncapped = t < g_at_one
        slope = -float(np.add.reduce(1.0 / (2.0 + 1.0 / (m * x[uncapped]))))
        if slope < 0.0:
            cand = lam - s / slope
        else:
            cand = lam + (1.0 if s > 0 else -1.0)
        if lo is not None and hi is not None and not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        elif lo is not None and hi is None and cand <= lo:
            cand = lo + max(1.0, 2.0 * (lam - lo) if lam > lo else 1.0)
        elif hi is not None and lo is None and cand >= hi:
            cand = hi - max(1.0, 2.0 * (hi - lam) if hi > lam else 1.0)
        lam = cand
    raise SolverFailure("m-set proximal step did not meet the sum tolerance",
                        residual=abs(s), iterations=MAX_OUTER)


def mset_prox_kkt_residual(x_new, x_old, step, m, lam):
    """Stationarity residual of the returned point (excludes capped coords'
    slack, which is non-negative by construction)."""
    g_new = 2.0 * x_new + (np.log(x_new) + 1.0) / m
    g_old = 2.0 * x_old + (np.log(x_old) + 1.0) / m
    res = g_new - g_old + step + lam
    capped = x_new >= 1.0 - 1e-12
    res = np.where(capped, np.minimum(res, 0.0), res)  # slack mu >= 0 at cap
    return float(np.max(np.abs(res))), float(abs(x_new.sum() - m))


# ---------------------------------------------------------------------------
# Flow-polytope solvers
# ---------------------------------------------------------------------------

def flow_prox_newton(dag, reg, x_start, linear):
    """Minimize ``<linear, x> + reg(x)`` over the flow polytope.

    Damped Newton on the KKT system from a feasible interior start.  A
    proximal step is obtained with ``linear = eta*y - reg.grad(x_old)``;
    the plain regularizer minimizer with ``linear = 0``.

    Returns ``(x, info)`` where info carries the final residual, the
    iteration count and ``reg.grad(x)`` as ``grad``.  Raises
    :class:`SolverFailure` if the KKT residual does not reach
    ``SOLVER_TOL`` within ``NEWTON_MAX_ITER`` iterations.
    """
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
    for iteration in range(NEWTON_MAX_ITER):
        reg_grad = reg.grad(x)
        grad = linear + reg_grad
        # Stationarity is measured against the best multiplier for the
        # CURRENT point (least squares, nu = -pinv(A^T) grad), not the one
        # riding along with the Newton step, which is conditioning-limited
        # near the optimum.
        residual = max(float(np.max(np.abs(grad - a_mat.T @ (a_ls @ grad)))),
                       float(np.max(np.abs(a_mat @ x - b_vec))))
        if residual <= SOLVER_TOL:
            return x, {"residual": residual, "iterations": iteration,
                       "grad": reg_grad}
        kkt[:n_edges, :n_edges] = reg.hessian_matrix(x)
        rhs[:n_edges] = -grad
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            kkt[:n_edges, :n_edges] += 1e-12 * np.eye(n_edges)
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        p = sol[:n_edges]
        neg = p < 0
        alpha = min(1.0, 0.995 * float(np.min(x[neg] / -p[neg], initial=np.inf)))
        alpha = _armijo(
            lambda a: objective(x + a * p) if (x + a * p).min() > 0 else np.inf,
            objective(x), float(grad @ p), alpha,
            SolverFailure("flow Newton line search stalled",
                          residual=residual, iterations=iteration))
        x = x + alpha * p
    raise SolverFailure("flow Newton did not reach tolerance",
                        residual=residual, iterations=NEWTON_MAX_ITER)


def _armijo(value_at, base, slope, alpha, stalled):
    """Halve ``alpha`` until ``value_at(alpha)`` makes the Armijo decrease
    from ``base`` along ``slope``; raise ``stalled`` below 1e-16.  A slope
    under ``1e-12 * (1 + |base|)`` drowns in round-off: take the step as is.
    """
    if abs(slope) > 1e-12 * (1.0 + abs(base)):
        while not value_at(alpha) <= base + 1e-4 * alpha * slope:
            alpha *= 0.5
            if alpha <= 1e-16:
                raise stalled
    return alpha


def sinkhorn_flow_projection(dag, log_w):
    """Negative-entropy (KL) Bregman projection of weights ``exp(log_w)``
    onto the flow polytope.

    The name is that of the problem (matrix scaling on a flow polytope),
    not of the algorithm: damped Newton on the concave dual over vertex
    potentials ``nu`` (sink pinned at zero), ``nu_source - sum_e x_e`` with
    ``x_e = exp(log_w_e + nu_tail - nu_head)``, gradient ``b - B x`` and
    Hessian ``-B diag(x) B^T``.  It starts at ``nu = -log Z`` (``Z(v)`` the
    weight of the v-to-sink paths), where every outflow is one; from
    ``nu = 0``, a step with ``eta * loss`` of some tens can leave a heavy
    subgraph hanging on light edges, with a singular Newton system.

    Returns ``(x, info)`` with the ``flow_check`` residual, at most
    ``SOLVER_TOL``, and the number of Newton steps; raises
    :class:`SolverFailure` past ``PROJECTION_MAX_ITER`` steps.
    """
    log_w = np.asarray(log_w, dtype=float)
    tails, heads = dag.compiled.tails, dag.compiled.heads
    free = np.arange(dag.n_vertices) != dag.sink
    inc = dag.incidence[free]
    log_z, _ = dag.semiring_pass(log_w, np.logaddexp)
    nu = np.where(np.isfinite(log_z), -log_z, 0.0)

    def flow_and_dual(pot):
        """The flow at potentials ``pot`` and the dual objective, negated."""
        x = np.exp(log_w + pot[tails] - pot[heads])
        return x, float(np.add.reduce(x)) - pot[dag.source]

    x, base = flow_and_dual(nu)
    residual = np.inf
    for iteration in range(PROJECTION_MAX_ITER):
        excess = dag.flow_excess(x)
        residual = flow_residual(x, excess)
        if residual <= SOLVER_TOL:
            return x, {"residual": residual, "iterations": iteration}
        grad = excess[free]
        hess = (inc * x) @ inc.T
        step = np.zeros(dag.n_vertices)
        try:
            step[free] = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:  # every edge at some vertex is zero
            step[free] = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        nu += _armijo(lambda a: flow_and_dual(nu + a * step)[1], base,
                      float(grad @ step[free]), 1.0,
                      SolverFailure("entropy projection line search stalled",
                                    residual=residual, iterations=iteration)
                      ) * step
        x, base = flow_and_dual(nu)
    raise SolverFailure("entropy projection did not reach tolerance",
                        residual=residual, iterations=PROJECTION_MAX_ITER)
