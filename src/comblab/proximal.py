"""Proximal-step solvers behind the mirror-descent learners.

* :func:`mset_prox` -- the m-set step: one scalar dual variable for the
  cardinality constraint, per-coordinate solves in closed form through the
  Wright omega function, box handling by clipping with complementary
  slackness.
* :func:`flow_prox_newton` -- damped Newton on the equality-constrained
  KKT system over a flow polytope.  Used as the numeric oracle that keeps
  the fast weight-pushing path honest, and as the cross-check for the
  entropy projection.  What is fixed per DAG is built once: the
  constraint system and its least-squares multiplier operator
  (:attr:`Dag.flow_system`), the KKT matrix with its constraint blocks
  filled in (:attr:`Dag.kkt_template`, copied once per call) and the
  dilated entropy's same-star Hessian pattern (``DilatedEntropy``).  Each
  step writes the Hessian block and costs one dense KKT solve.
* :func:`sinkhorn_flow_projection` -- Bregman projection (negative
  entropy) onto the flow polytope by damped Newton on the dual over vertex
  potentials, with the incidence rows of the free vertices built once
  per DAG (:attr:`Dag.free_incidence`).

Both take the line search of :func:`_armijo`, which returns what it
evaluated at the accepted step: the next iteration starts from that value
(and flow) instead of evaluating it again.
"""

import functools
import math

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
# reads  w + ln w = m t - 1 + ln(2m),  so  w = omega(u)  with omega the
# Wright omega function (Corless & Jeffrey, 2002).  The step iterates in
#     u_i = min(m (c_i - lam) - 1 + ln(2m), u_cap) = min(a_i - m lam, u_cap),
# where u_cap = 2m + ln(2m) is the box cap x_i = 1 (omega(u_cap) = 2m), and
#     a_i = 2m x_old_i + ln x_old_i + ln(2m) - m step_i = u_old_i - m step_i.
# u_old, the u at which the previous step stopped, is the solver's own
# state: in exact arithmetic 2m x + ln(2m x) = u at an uncapped coordinate,
# and both sides read u_cap at a capped one, so the two forms of a agree up
# to rounding.  A caller that carries u_old (MSetOmd) saves the logarithm,
# and a coordinate whose x underflowed to 0 keeps a finite u and can come
# back; without it a is formed from x_old, and a coordinate at 0 stays
# there (ln 0 = -inf).  The cap is applied, and the capped coordinates
# masked out of the derivatives, only in iterations where max(a) - m lam
# reaches u_cap; x = min(w / 2m, 1) always, so rounding never lifts x
# above 1.  The outer scalar equation s(lam) = sum x(lam) - m = 0 is solved
# by safeguarded Halley steps (or bisection, kept as the reference mode).
# omega's own output gives both derivatives: omega' = w / (1 + w), so with
# rest = 1 / (1 + w) and w read as 0 at the capped coordinates
#     s'(lam) = -1/2 sum w rest,   s''(lam) = m/2 sum w rest^3,
# one dot product each.  A Halley step whose denominator 2 s'^2 - s s'' is
# not positive falls back to Newton.  Every step stays in [lam_min,
# lam_max], beyond which all coordinates lie on one side of their mean, so
# the root lies inside: where every coordinate is capped or underflowed,
# s' = 0 and the step goes to that bound, then halves the bracket.

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


def _omega_coords(u, m):
    """``(x, w)`` with ``w = omega(u)`` and ``x = min(w / 2m, 1)``: each
    coordinate's solution of ``2m x + ln(2m x) = u``, for ``u`` at most
    the cap ``2m + ln(2m)``."""
    w = scipy_wrightomega()(u)
    return np.minimum(w / (2.0 * m), 1.0), w


def mset_prox(x_old, step, m, lam_init=0.0, method="newton", u_old=None):
    """The m-set proximal step.

    Parameters
    ----------
    x_old : interior point of the polytope (all coordinates in (0, 1]).
    step : learning-rate-scaled loss vector (eta * y).
    m : cardinality of the set.
    lam_init : warm start for the scalar dual variable.
    method : "newton" (safeguarded Halley steps, Newton where Halley's
        denominator is not positive) or "bisect" (pure bisection reference).
    u_old : the ``u`` that the step which returned ``x_old`` returned
        beside it; the step then starts from it instead of from ``x_old``.

    Returns
    -------
    (x, lam, u) with ``|sum(x) - m| <= SUM_TOL`` and ``u`` the log-domain
    state to pass as the next step's ``u_old``; raises
    :class:`SolverFailure` after ``MAX_OUTER`` outer steps.
    """
    two_m = 2.0 * m
    log_two_m = math.log(two_m)
    u_cap = two_m + log_two_m
    if u_old is None:  # the state that x_old stands for
        x_old = np.asarray(x_old, dtype=float)
        u_old = two_m * x_old + np.log(x_old) + log_two_m
    a = u_old - m * np.asarray(step, dtype=float)
    # Past these bounds every coordinate not at 0 lies on one side of their
    # mean m / size: s(lam_min) > 0 > s(lam_max).
    a_min, a_max = np.minimum.reduce(a), np.maximum.reduce(a)
    size = a.size
    if a_min == -np.inf:  # underflowed coordinates of x_old
        moving = a[a > -np.inf]
        a_min, size = np.minimum.reduce(moving), moving.size
    mean = m / size
    u_mean = two_m * mean + math.log(two_m * mean)
    lam_min = (a_min - u_mean) / m - 1.0
    lam_max = (a_max - u_mean) / m + 1.0

    lam = float(lam_init)
    lo = hi = None  # s(lo) > 0 > s(hi); s is decreasing in lam
    for _ in range(MAX_OUTER):
        u = a - m * lam
        capped = a_max - m * lam >= u_cap
        if capped:
            np.minimum(u, u_cap, out=u)
        x, w = _omega_coords(u, m)
        s = float(np.add.reduce(x)) - m
        if abs(s) <= SUM_TOL:
            return x, lam, u
        if s > 0:
            lo = lam
        else:
            hi = lam
        if method == "bisect" and lo is not None and hi is not None:
            lam = 0.5 * (lo + hi)
            continue
        rest = np.divide(1.0, w + 1.0)  # 1 - share
        if capped:
            w[u >= u_cap] = 0.0
        slope = -0.5 * float(w.dot(rest))
        bracketed = lo is not None and hi is not None
        if slope < 0.0:
            cube = rest * rest
            cube *= rest
            curve = 0.5 * m * float(w.dot(cube))
            denom = 2.0 * slope * slope - s * curve
            cand = (lam - 2.0 * s * slope / denom if denom > 0.0
                    else lam - s / slope)
        elif bracketed:  # every coordinate capped or underflowed
            cand = 0.5 * (lo + hi)
        else:
            cand = lam_max if s > 0 else lam_min
        cand = min(max(cand, lam_min), lam_max)
        if bracketed and not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        lam = cand
    raise SolverFailure("m-set proximal step did not meet the sum tolerance",
                        residual=abs(s), iterations=MAX_OUTER)


def mset_prox_kkt_residual(x_new, x_old, step, m, lam, u_old=None):
    """Stationarity residual ``g(x) - g(x_old) + step + lam`` of the
    returned point; given the ``u_old`` the step started from, ``(2m x +
    ln(2m x) - (u_old - m step - m lam)) / m``, the same with ``u_old`` in
    place of its ``x_old`` form.  At a capped coordinate the residual is
    ``-mu`` for the cap's multiplier ``mu >= 0``, so only its positive part
    counts; coordinates that underflowed to 0 are left out."""
    moving = x_new > 0.0
    x, step = x_new[moving], step[moving]
    if u_old is None:
        x_old = x_old[moving]
        g_new = 2.0 * x + (np.log(x) + 1.0) / m
        g_old = 2.0 * x_old + (np.log(x_old) + 1.0) / m
        res = g_new - g_old + step + lam
    else:
        w = 2.0 * m * x
        res = (w + np.log(w) - (u_old[moving] - m * step - m * lam)) / m
    capped = x >= 1.0 - 1e-12
    res = np.where(capped, np.maximum(res, 0.0), res)  # res = -mu <= 0 at cap
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
    n_edges = dag.n_edges
    x = np.asarray(x_start, dtype=float).copy()
    linear = np.asarray(linear, dtype=float)
    kkt = dag.kkt_template.copy()
    rhs = np.zeros(len(kkt))

    def objective(pt):
        """``(pt, value)``, the value infinite off the open orthant."""
        if not pt.min() > 0:
            return pt, np.inf
        return pt, float(linear @ pt) + reg.value(pt)

    base = None  # the objective at x, when the line search evaluated it
    residual = np.inf
    for iteration in range(NEWTON_MAX_ITER):
        reg_grad = reg.grad(x)
        grad = linear + reg_grad
        # Stationarity is measured against the best multiplier for the
        # CURRENT point (least squares, nu = -pinv(A^T) grad), not the one
        # riding along with the Newton step, which is conditioning-limited
        # near the optimum.
        residual = max(float(np.abs(grad - a_mat.T @ (a_ls @ grad)).max()),
                       float(np.abs(a_mat @ x - b_vec).max()))
        if residual <= SOLVER_TOL:
            return x, {"residual": residual, "iterations": iteration,
                       "grad": reg_grad}
        kkt[:n_edges, :n_edges] = reg.hessian_matrix(x)
        rhs[:n_edges] = -grad
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            kkt[:n_edges, :n_edges] += 1e-12 * np.eye(n_edges)
            try:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            except np.linalg.LinAlgError as err:  # e.g. NaN once 1/x overflows
                raise SolverFailure(f"flow Newton's KKT system has no "
                                    f"least-squares solution: {err}",
                                    residual=residual,
                                    iterations=iteration) from err
        p = sol[:n_edges]
        neg = p < 0
        alpha = min(1.0, 0.995 * float((x[neg] / -p[neg]).min(initial=np.inf)))
        if base is None:
            base = objective(x)[1]
        alpha, accepted = _armijo(
            lambda a: objective(x + a * p), base, float(grad @ p), alpha,
            ("flow Newton line search stalled", residual, iteration))
        # x + alpha * p, as the line search evaluated it or afresh
        x, base = accepted or (x + alpha * p, None)
    raise SolverFailure("flow Newton did not reach tolerance",
                        residual=residual, iterations=NEWTON_MAX_ITER)


def _armijo(evaluate, base, slope, alpha, stalled):
    """Halve ``alpha`` until ``evaluate(alpha)``, a tuple whose last item
    is the value there, makes the Armijo decrease from ``base`` along
    ``slope``; below 1e-16 raise ``SolverFailure(*stalled)``, ``stalled``
    being its message, residual and iteration count.  A slope under
    ``1e-12 * (1 + |base|)`` drowns in round-off: take the step as is.

    Returns ``(alpha, accepted)``, ``accepted`` being what ``evaluate``
    returned at that ``alpha``, or None where nothing was evaluated.
    """
    if abs(slope) > 1e-12 * (1.0 + abs(base)):
        while True:
            trial = evaluate(alpha)
            if trial[-1] <= base + 1e-4 * alpha * slope:
                return alpha, trial
            alpha *= 0.5
            if alpha <= 1e-16:
                raise SolverFailure(*stalled)
    return alpha, None


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
    ``SOLVER_TOL``, the number of Newton steps and ``log x`` as ``log_x``:
    the exponent itself, finite where ``x`` underflowed to 0.  Raises
    :class:`SolverFailure` past ``PROJECTION_MAX_ITER`` steps.
    """
    log_w = np.asarray(log_w, dtype=float)
    tails, heads = dag.compiled.tails, dag.compiled.heads
    free = np.arange(dag.n_vertices) != dag.sink
    inc = dag.free_incidence
    log_z, _ = dag.semiring_pass(log_w, np.logaddexp)
    nu = np.where(np.isfinite(log_z), -log_z, 0.0)

    def flow_and_dual(pot):
        """``(pot, log x, x, the dual objective negated)`` at ``pot``."""
        log_x = log_w + pot[tails] - pot[heads]
        x = np.exp(log_x)
        return pot, log_x, x, float(np.add.reduce(x)) - pot[dag.source]

    _, log_x, x, base = flow_and_dual(nu)
    step = np.zeros(dag.n_vertices)  # the sink's entry stays 0
    residual = np.inf
    for iteration in range(PROJECTION_MAX_ITER):
        excess = dag.flow_excess(x)
        residual = flow_residual(x, excess)
        if residual <= SOLVER_TOL:
            return x, {"residual": residual, "iterations": iteration,
                       "log_x": log_x}
        grad = excess[free]
        hess = (inc * x) @ inc.T
        try:
            free_step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:  # every edge at some vertex is zero
            free_step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        step[free] = free_step
        alpha, accepted = _armijo(
            lambda a: flow_and_dual(nu + a * step), base,
            float(grad @ free_step), 1.0,
            ("entropy projection line search stalled", residual, iteration))
        # nu + alpha * step, as the line search evaluated it or afresh
        nu, log_x, x, base = accepted or flow_and_dual(nu + alpha * step)
    raise SolverFailure("entropy projection did not reach tolerance",
                        residual=residual, iterations=PROJECTION_MAX_ITER)
