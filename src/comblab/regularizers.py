"""Distance-generating functions used by the mirror-descent learners.

Three regularizers are implemented:

* :class:`MSetRegularizer` -- ``sum_i x_i^2 + (1/m) x_i ln x_i`` on the
  scaled-simplex hull of an m-set,
* :class:`DilatedEntropy` -- ``sum_E x_e ln x_e - sum_V x_v ln x_v`` on a
  flow polytope, with vertex loads ``x_v`` computed from outgoing edges
  (the sink load is pinned to one),
* :class:`NegativeEntropy` -- ``sum_e (x_e ln x_e - x_e)``.

Everywhere ``0 ln 0 = 0``.  Values accept boundary points; gradients and
Hessians require strictly positive coordinates.
"""

import numpy as np

from .errors import DomainError, InternalConsistencyError

# Floor inside logs so diagnostics at exact zeros return -inf-free numbers.
EPS_CLAMP = 1e-300
NEG_BREGMAN_TOL = 1e-10


def _xlogx(x):
    return np.where(x > 0.0, x * np.log(np.maximum(x, EPS_CLAMP)), 0.0)


def _check_nonneg(x):
    if np.min(x, initial=0.0) < -1e-12:
        raise DomainError(f"negative coordinate {np.min(x)!r}")


def _check_positive(x):
    if np.min(x) <= 0.0:
        raise DomainError("gradient/Hessian need strictly positive coordinates")


class Regularizer:
    """Interface: value, gradient, Hessian quadratic form, Bregman divergence."""

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hessian_quadform(self, x, z):
        """``z' H(x) z`` with the exact Hessian at ``x``."""
        raise NotImplementedError

    def hessian_matrix(self, x):
        """Dense Hessian; desk-scale helper for the numeric KKT solvers."""
        raise NotImplementedError

    def bregman(self, x_new, x_old):
        """``value(x_new) - value(x_old) - <grad(x_old), x_new - x_old>``.

        Round-off below 1e-10 is clamped to zero; anything more negative is
        a bug (Bregman divergences are non-negative by convexity) and raises.
        """
        x_new = np.asarray(x_new, dtype=float)
        x_old = np.asarray(x_old, dtype=float)
        div = self.value(x_new) - self.value(x_old) \
            - float(self.grad(x_old) @ (x_new - x_old))
        if div < -NEG_BREGMAN_TOL:
            raise InternalConsistencyError(f"negative Bregman divergence {div!r}")
        return max(div, 0.0)


class MSetRegularizer(Regularizer):
    """Quadratic-plus-scaled-entropy regularizer for exactly-m-of-d sets."""

    def __init__(self, d, m):
        self.d = int(d)
        self.m = int(m)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        _check_nonneg(x)
        return float(np.sum(x * x) + _xlogx(x).sum() / self.m)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        _check_positive(x)
        return 2.0 * x + (np.log(x) + 1.0) / self.m

    def hessian_quadform(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        _check_positive(x)
        return float(np.sum(z * z * (2.0 + 1.0 / (self.m * x))))

    def minimizer(self):
        # Symmetric strictly convex function on a permutation-symmetric
        # polytope: the uniform point m/d minimizes.
        return np.full(self.d, self.m / self.d)


class NegativeEntropy(Regularizer):
    """``sum_e (x_e ln x_e - x_e)``; domain is the non-negative orthant."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        _check_nonneg(x)
        return float(_xlogx(x).sum() - x.sum())

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        _check_positive(x)
        return np.log(x)

    def hessian_matrix(self, x):
        x = np.asarray(x, dtype=float)
        _check_positive(x)
        return np.diag(1.0 / x)


class DilatedEntropy(Regularizer):
    """Entropy dilated along a DAG's out-stars.

    Evaluated in the two-sum edge/vertex form with vertex loads computed
    from the point itself, so the function (and its derivatives) extend
    smoothly to all positive edge vectors, not only exact unit flows.  On
    the flow polytope it equals the negative Shannon entropy of the induced
    path distribution.

    The out-stars of the non-sink vertices partition the edges.  Every
    method takes the loads from :meth:`Dag.vertex_loads` (one bincount over
    the edge tails) and gathers them back by tail, so none loops over stars.
    """

    def __init__(self, dag):
        self.dag = dag
        tails = dag.compiled.tails
        self._star_vertices = np.flatnonzero(
            np.bincount(tails[tails != dag.sink], minlength=dag.n_vertices))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        _check_nonneg(x)
        loads = self.dag.vertex_loads(x)[self._star_vertices]
        return float(_xlogx(x).sum() - _xlogx(loads).sum())

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        _check_positive(x)
        tails = self.dag.compiled.tails
        # the sink's load is one, so its out-edges (if any) lose log 1 = 0
        return np.log(x) - np.log(self.dag.vertex_loads(x)[tails])

    def hessian_quadform(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        _check_positive(x)
        stars = self._star_vertices
        star_z = np.bincount(self.dag.compiled.tails, z, self.dag.n_vertices)[stars]
        return float(np.sum(z * z / x)) \
            - float(np.sum(star_z * star_z / self.dag.vertex_loads(x)[stars]))

    def hessian_matrix(self, x):
        x = np.asarray(x, dtype=float)
        _check_positive(x)
        tails = self.dag.compiled.tails
        same_star = (tails[:, None] == tails) & (tails != self.dag.sink)[:, None]
        h = np.diag(1.0 / x)
        h -= same_star / self.dag.vertex_loads(x)[tails][:, None]
        return h


def uniform_path_flow(dag):
    """Edge marginals of the uniform distribution over all s-t paths."""
    to_sink = dag.paths_to_sink()
    from_source = [0] * dag.n_vertices
    from_source[dag.source] = 1
    for u in dag.topological_order():
        for e in dag.out_edges[u]:
            from_source[dag.edges[e][1]] += from_source[u]
    n_paths = to_sink[dag.source]
    flow = np.empty(dag.n_edges)
    for e, (u, v) in enumerate(dag.edges):
        flow[e] = from_source[u] * to_sink[v] / n_paths
    return flow


def path_entropy_sum(dag, flow):
    """``sum_p P(p) ln P(p)`` by path enumeration (oracle for the dilated
    form), where ``P(p)`` multiplies the conditional edge choices
    ``flow[e] / flow[tail(e)]`` along ``p``."""
    flow = np.asarray(flow, dtype=float)
    loads = dag.vertex_loads(flow)
    probs = []
    for x in dag.enumerate_paths():
        p = 1.0
        for e in np.flatnonzero(x):
            p *= flow[e] / loads[dag.edges[e][0]]
        probs.append(p)
    return float(np.sum(_xlogx(np.array(probs))))
