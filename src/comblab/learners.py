"""Online learners: Hedge by weight pushing or by explicit weights, and
mirror descent with the three regularizers.

Every learner follows the predict-then-observe protocol: ``propose()``
returns the mean policy for the current round, ``sample(rng)`` draws a
vertex consistent with it, and ``absorb(y)`` folds the observed loss into
the state.  ``step(y)`` is the common propose-then-absorb convenience.

m-sets (the select/skip DAG), multitask products (a chain of parallel-edge
bundles) and DAG path sets all have vertices that are the s-t paths of a
DAG, with path losses equal to vertex losses (``path_embedding``).  Hedge
over them is one learner, :class:`PathHedge`: weight pushing with one
log-sum-exp :meth:`Dag.semiring_pass` over the graph's topological levels,
O(|E|) work in O(levels) numpy calls per round.  On m-sets the
:class:`SelectionDag` runs that pass along the cardinality axis instead, in
O(m) numpy calls.  Mirror descent with
dilated entropy has the same iterates, so the ``omd-dilated`` spec runs it
too; :class:`DilatedOmd` is the numeric KKT route kept to certify that.
Other sets use :class:`ExplicitHedge`, one weight per enumerated vertex.
All weight arithmetic is done in log space with max-subtraction so large
eta*T never overflows.
"""

import math

import numpy as np

from .domain import DagPathSet, MSet
from .errors import PreconditionError, ValidationError
from .proximal import (flow_prox_newton, mset_prox, mset_prox_kkt_residual,
                       scipy_wrightomega, sinkhorn_flow_projection)
from .regularizers import DilatedEntropy, uniform_path_flow
from .sampling import sample_explicit, sample_mset, sample_path


# ---------------------------------------------------------------------------
# learning rates
# ---------------------------------------------------------------------------

def _log_count(decision_set):
    """``ln|X|``, which a default rate needs to be positive."""
    log_count = decision_set.log_count()
    if log_count == 0.0:
        raise PreconditionError("the decision set has one vertex, so the "
                                "default rate is 0; set eta")
    return log_count


def default_learning_rate(decision_set, horizon):
    """``sqrt(ln|X| / T)`` with the log-count in closed form per variant."""
    if horizon < 1:
        raise PreconditionError("horizon must be at least 1")
    return math.sqrt(_log_count(decision_set) / horizon)


def mset_omd_rate(d, m, horizon):
    """Prescribed rate of the m-set mirror-descent learner."""
    return math.sqrt(2.0 * (m + math.log(d / m)) / (9.0 * horizon))


def dag_entropy_rate(decision_set, horizon):
    """Prescribed rate of the shifted-loss entropy learner on DAGs."""
    return math.sqrt(_log_count(decision_set) * math.log(decision_set.dimension)
                     / horizon)


# ---------------------------------------------------------------------------
# weight pushing
# ---------------------------------------------------------------------------

def weight_pushing_marginals(dag, log_weights):
    """Marginal probability of each edge under path weights ``exp(log_weights)``.

    One log-sum-exp pass gives, at every vertex, the log partition function
    of the paths to the sink and of the paths from the source.
    """
    log_w = np.asarray(log_weights, dtype=float)
    log_z, log_f = dag.semiring_pass(log_w, np.logaddexp)
    compiled = dag.compiled
    return np.exp(log_f[compiled.tails] + log_w + log_z[compiled.heads]
                  - log_z[dag.source])


# ---------------------------------------------------------------------------
# learner base
# ---------------------------------------------------------------------------

def check_loss(decision_set, y):
    """Raise :class:`ValidationError` unless ``y`` has one entry per
    coordinate and every action's loss under it lies in [-1, 1]
    (``decision_set.validate_loss``)."""
    report = decision_set.validate_loss(y)
    if not report.ok:
        size, dim = np.size(y), decision_set.dimension
        raise ValidationError(
            f"loss vector has {size} entries, the decision set {dim}"
            if size != dim else f"loss vector with action-loss "
            f"{report.value:.6g} exceeds the unit bound", report=report)


class Learner:
    name = "learner"
    hedge_family = False

    def __init__(self, decision_set, eta):
        if not 0 < eta < math.inf:
            raise PreconditionError("learning rate must be positive and finite")
        self.decision_set = decision_set
        self.eta = float(eta)
        self._policy_cache = None

    def propose(self):
        if self._policy_cache is None:
            self._policy_cache = self._compute_policy()
        return self._policy_cache

    def absorb(self, y):
        """Fold in the observed loss ``y``; the caller has checked it, once
        for all learners of the round (:func:`check_loss`, or a batched
        ``validate_losses`` over the trial)."""
        self._absorb(np.asarray(y, dtype=float))
        self._policy_cache = None

    def step(self, y):
        """Policy for the current round, then check and fold in the
        observed loss."""
        policy = self.propose()
        y = np.asarray(y, dtype=float)
        check_loss(self.decision_set, y)
        self.absorb(y)
        return policy

    def _compute_policy(self):
        raise NotImplementedError

    def _absorb(self, y):
        raise NotImplementedError

    def sample(self, rng):
        """Vertex draw whose expectation is the current ``propose()``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Hedge
# ---------------------------------------------------------------------------

class ExplicitHedge(Learner):
    """Hedge with one exponential weight per enumerated vertex."""

    name = "hedge"
    hedge_family = True

    def __init__(self, decision_set, eta):
        super().__init__(decision_set, eta)
        self.vertices = np.asarray(decision_set.enumerate_vertices())
        self.cum_loss = np.zeros(self.vertices.shape[0])
        self._dist_cache = None

    def distribution(self):
        if self._dist_cache is None:
            s = -self.eta * self.cum_loss
            s = s - s.max()
            w = np.exp(s)
            self._dist_cache = w / w.sum()
        return self._dist_cache

    def _compute_policy(self):
        return self.distribution() @ self.vertices

    def _absorb(self, y):
        self.cum_loss += self.vertices @ y
        self._dist_cache = None

    def sample(self, rng):
        return sample_explicit(self.vertices, self.distribution(), rng)


class PathHedge(Learner):
    """Exact Hedge over a decision set whose vertices are the s-t paths of a
    DAG (``decision_set.path_embedding``).

    Path losses equal vertex losses under the embedding, so exponential
    weights over paths are Hedge over the set.  The learner keeps one
    cumulative loss per edge; each round's policy is the coordinate sum of
    the edge marginals of one weight-pushing pass, so a round costs O(|E|)
    work in O(levels) numpy calls however many vertices the set has; on an
    m-set, O(m) numpy calls (:meth:`SelectionDag.semiring_pass`).
    """

    name = "hedge"
    hedge_family = True

    def __init__(self, decision_set, eta):
        if decision_set.path_embedding is None:
            raise PreconditionError("PathHedge needs a set of DAG paths")
        super().__init__(decision_set, eta)
        self.dag, coord = decision_set.path_embedding
        self._edges = np.flatnonzero(coord >= 0)
        self._coords = coord[self._edges]
        self.cum_loss = np.zeros(self.dag.n_edges)
        self._marg = None  # edge marginals behind the cached policy

    def _compute_policy(self):
        self._marg = weight_pushing_marginals(self.dag, -self.eta * self.cum_loss)
        return np.bincount(self._coords, weights=self._marg[self._edges],
                           minlength=self.decision_set.dimension)

    def _absorb(self, y):
        self.cum_loss[self._edges] += y[self._coords]

    def sample(self, rng):
        self.propose()  # sets the edge marginals of the current round
        path = sample_path(self.dag, self._marg, rng)
        x = np.zeros(self.decision_set.dimension)
        x[self._coords[path[self._edges] > 0]] = 1.0
        return x


def make_hedge(decision_set, eta):
    """Exact Hedge: weight pushing when the set is a set of DAG paths,
    one weight per enumerated vertex otherwise."""
    if decision_set.path_embedding is not None:
        return PathHedge(decision_set, eta)
    return ExplicitHedge(decision_set, eta)


# ---------------------------------------------------------------------------
# mirror-descent learners
# ---------------------------------------------------------------------------

class MSetOmd(Learner):
    """Mirror descent on an m-set with the quadratic-plus-entropy regularizer.

    The proximal step solves the cardinality-constrained stationarity
    system with one scalar dual variable (warm-started across rounds) and
    box clipping; iterates stay strictly inside (0, 1]^d.
    """

    name = "omd-mset"

    def __init__(self, decision_set, eta):
        if not isinstance(decision_set, MSet):
            raise PreconditionError("MSetOmd needs an MSet")
        super().__init__(decision_set, eta)
        self.m = decision_set.m
        self.iterate = np.full(decision_set.dimension,
                               self.m / decision_set.dimension)
        self._lam = 0.0
        self._last = None
        scipy_wrightomega()  # the step's import, paid here

    def _compute_policy(self):
        return self.iterate.copy()

    def _absorb(self, y):
        step = self.eta * y
        new, self._lam = mset_prox(self.iterate, step, self.m,
                                   lam_init=self._lam)
        self._last = (self.iterate, step, new, self._lam)
        self.iterate = new

    def kkt_residual(self):
        """(stationarity, cardinality) residuals of the last proximal step."""
        if self._last is None:
            return 0.0, 0.0
        x_old, step, x_new, lam = self._last
        return mset_prox_kkt_residual(x_new, x_old, step, self.m, lam)

    def sample(self, rng):
        return sample_mset(self.iterate, self.m, rng)


class DilatedOmd(Learner):
    """Mirror descent with dilated entropy on a flow polytope, each proximal
    step solved by the damped-Newton KKT oracle.

    Its iterates equal path Hedge's (iterate equivalence), so the
    ``omd-dilated`` spec runs :class:`PathHedge`; this class is the
    independent numeric route that the equivalence checker compares it with.
    """

    name = "omd-dilated"

    def __init__(self, decision_set, eta):
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError("DilatedOmd needs a DagPathSet")
        super().__init__(decision_set, eta)
        self.dag = decision_set.dag
        self.reg = DilatedEntropy(self.dag)
        self.iterate = uniform_path_flow(self.dag)
        # reg.grad at the iterate; each proximal solve reports the next one
        self.reg_grad = self.reg.grad(self.iterate)

    def _compute_policy(self):
        return self.iterate.copy()

    def _absorb(self, y):
        self.iterate, info = flow_prox_newton(self.dag, self.reg, self.iterate,
                                              self.eta * y - self.reg_grad)
        self.reg_grad = info["grad"]

    def sample(self, rng):
        return sample_path(self.dag, self.propose(), rng)


class EntropyDagOmd(Learner):
    """Shifted-loss negative-entropy mirror descent on a flow polytope.

    Each observed loss is re-potentialed into an equivalent non-negative
    vector (constant shift along every path), then a multiplicative edge
    update is projected back onto the polytope under negative entropy by
    damped Newton on the dual over vertex potentials
    (:func:`sinkhorn_flow_projection`).
    """

    name = "omd-entropy-dag"

    def __init__(self, decision_set, eta):
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError("EntropyDagOmd needs a DagPathSet")
        super().__init__(decision_set, eta)
        self.dag = decision_set.dag
        self.iterate, _ = sinkhorn_flow_projection(
            self.dag, np.zeros(self.dag.n_edges))

    def _compute_policy(self):
        return self.iterate.copy()

    def _absorb(self, y):
        shifted, _ = shift_losses(self.dag, y)
        with np.errstate(divide="ignore"):  # an underflowed 0 is a zero flow
            log_x = np.log(self.iterate)
        self.iterate, _ = sinkhorn_flow_projection(
            self.dag, log_x - self.eta * shifted)

    def sample(self, rng):
        return sample_path(self.dag, self.iterate, rng)


# ---------------------------------------------------------------------------
# loss shifting
# ---------------------------------------------------------------------------

def shift_losses(dag, y):
    """Re-potential ``y`` into an equivalent non-negative edge vector.

    With ``dist(v)`` the shortest-path weight from the source, the vector
    ``y'[(u,v)] = y[(u,v)] + dist(u) - dist(v)`` is non-negative by the
    triangle inequality and shifts every path's loss by the same constant
    ``alpha = -dist(sink)``; for unit-bounded losses the per-path sum of
    squares of ``y'`` stays at most four.

    Returns ``(y_shifted, alpha)``.
    """
    y = np.asarray(y, dtype=float)
    _, dist = dag.semiring_pass(y, np.minimum)
    shifted = y + dist[dag.compiled.tails] - dist[dag.compiled.heads]
    return shifted, float(-dist[dag.sink])
