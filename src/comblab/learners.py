"""Online learners: Hedge in several exact representations, and mirror
descent with the three regularizers.

Every learner follows the predict-then-observe protocol: ``propose()``
returns the mean policy for the current round, ``sample(rng)`` draws a
vertex consistent with it, and ``absorb(y)`` folds the observed loss into
the state.  ``step(y)`` is the common propose-then-absorb convenience.

Hedge is computed exactly in whichever representation fits the decision
set: an explicit weight per vertex, weight pushing over a DAG, a
select/skip DAG embedding for m-sets (the path bijection preserves losses,
so the induced distribution IS Hedge over the m-set), or per-block weights
for multitask sets.  Weight pushing is one log-sum-exp
:meth:`Dag.semiring_pass` over the graph's topological levels, so a round
costs O(|E|) work in O(levels) numpy calls.  All weight arithmetic is done
in log space with max-subtraction so large eta*T never overflows.
"""

import math

import numpy as np

from .domain import Dag, DagPathSet, MSet, MultitaskSet
from .errors import PreconditionError, ValidationError
from .proximal import (flow_prox_newton, mset_prox, mset_prox_kkt_residual,
                       sinkhorn_flow_projection)
from .regularizers import DilatedEntropy, NegativeEntropy, uniform_path_flow
from .sampling import sample_explicit, sample_mset, sample_path


# ---------------------------------------------------------------------------
# learning rates
# ---------------------------------------------------------------------------

def default_learning_rate(decision_set, horizon):
    """``sqrt(ln|X| / T)`` with the log-count in closed form per variant."""
    if horizon < 1:
        raise PreconditionError("horizon must be at least 1")
    return math.sqrt(decision_set.log_count() / horizon)


def mset_omd_rate(d, m, horizon):
    """Prescribed rate of the m-set mirror-descent learner."""
    return math.sqrt(2.0 * (m + math.log(d / m)) / (9.0 * horizon))


def dag_entropy_rate(decision_set, horizon):
    """Prescribed rate of the shifted-loss entropy learner on DAGs."""
    return math.sqrt(decision_set.log_count() * math.log(decision_set.dimension)
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

class Learner:
    name = "learner"
    hedge_family = False

    def __init__(self, decision_set, eta):
        if eta <= 0:
            raise PreconditionError("learning rate must be positive")
        self.decision_set = decision_set
        self.eta = float(eta)
        self._policy_cache = None

    def _validate(self, y):
        report = self.decision_set.validate_loss(y)
        if not report.ok:
            raise ValidationError(
                f"loss vector with action-loss {report.value:.6g} exceeds the "
                f"unit bound", report=report)

    def propose(self):
        if self._policy_cache is None:
            self._policy_cache = self._compute_policy()
        return self._policy_cache

    def absorb(self, y):
        y = np.asarray(y, dtype=float)
        self._validate(y)
        self._absorb(y)
        self._policy_cache = None

    def step(self, y):
        """Policy for the current round, then fold in the observed loss."""
        policy = self.propose()
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
# Hedge variants
# ---------------------------------------------------------------------------

class ExplicitHedge(Learner):
    """Hedge with one exponential weight per enumerated vertex."""

    name = "hedge"
    hedge_family = True

    def __init__(self, decision_set, eta, cap=None):
        super().__init__(decision_set, eta)
        kwargs = {} if cap is None else {"cap": cap}
        self.vertices = np.asarray(decision_set.enumerate_vertices(**kwargs))
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


class DagHedge(Learner):
    """Hedge over s-t paths via weight pushing.

    Each round's policy is the edge marginals of one log-sum-exp semiring
    pass: O(|E|) work in O(levels) numpy calls.
    """

    name = "hedge-dag"
    hedge_family = True

    def __init__(self, decision_set, eta, validate=True):
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError("DagHedge needs a DagPathSet")
        super().__init__(decision_set, eta)
        self.dag = decision_set.dag
        self.cum_loss = np.zeros(self.dag.n_edges)
        self._do_validate = validate

    def _validate(self, y):
        if self._do_validate:
            super()._validate(y)

    def _compute_policy(self):
        return weight_pushing_marginals(self.dag, -self.eta * self.cum_loss)

    def _absorb(self, y):
        self.cum_loss += y

    def sample(self, rng):
        return sample_path(self.dag, self.propose(), rng)


def mset_selection_dag(d, m):
    """Select/skip DAG whose s-t paths are in bijection with m-subsets of d.

    Level i vertex state is the count of coordinates selected so far; the
    edge from level i taken upward carries coordinate i.  Returns
    ``(dag, coordinate_of_edge)`` with -1 marking skip edges.
    """
    vid = {}
    for i in range(d + 1):
        lo = max(0, m - (d - i))
        hi = min(i, m)
        for j in range(lo, hi + 1):
            vid[(i, j)] = len(vid)
    edges = []
    coord = []
    for i in range(d):
        lo = max(0, m - (d - i))
        hi = min(i, m)
        for j in range(lo, hi + 1):
            if (i + 1, j) in vid:
                edges.append((vid[(i, j)], vid[(i + 1, j)]))
                coord.append(-1)
            if (i + 1, j + 1) in vid:
                edges.append((vid[(i, j)], vid[(i + 1, j + 1)]))
                coord.append(i)
    dag = Dag(len(vid), edges, vid[(0, 0)], vid[(d, m)])
    return dag, np.array(coord, dtype=int)


class MSetHedge(Learner):
    """Exact Hedge over an m-set, computed on the selection DAG.

    Paths of the selection DAG correspond one-to-one to m-subsets and path
    losses equal subset losses, so the induced distribution coincides with
    vertex-Hedge while each round costs O(d*m) instead of O(|X|).
    """

    name = "hedge"
    hedge_family = True

    def __init__(self, decision_set, eta):
        if not isinstance(decision_set, MSet):
            raise PreconditionError("MSetHedge needs an MSet")
        super().__init__(decision_set, eta)
        self.d = decision_set.dimension
        self.m = decision_set.m
        self.dag, self._coord = mset_selection_dag(self.d, self.m)
        self._select = np.flatnonzero(self._coord >= 0)
        self._select_coord = self._coord[self._select]
        self.cum_loss = np.zeros(self.dag.n_edges)
        self._marg = None  # edge marginals behind the cached policy

    def _embed(self, y):
        emb = np.zeros(self.dag.n_edges)
        emb[self._select] = y[self._select_coord]
        return emb

    def _compute_policy(self):
        self._marg = weight_pushing_marginals(self.dag, -self.eta * self.cum_loss)
        return np.bincount(self._select_coord, weights=self._marg[self._select],
                           minlength=self.d)

    def _absorb(self, y):
        self.cum_loss += self._embed(y)

    def sample(self, rng):
        self.propose()  # sets the edge marginals of the current round
        path = sample_path(self.dag, self._marg, rng)
        x = np.zeros(self.d)
        on = self._select[path[self._select] > 0]
        x[self._coord[on]] = 1.0
        return x


class MultitaskHedge(Learner):
    """Hedge over a product of expert blocks; weights factorize exactly."""

    name = "hedge"
    hedge_family = True

    def __init__(self, decision_set, eta):
        if not isinstance(decision_set, MultitaskSet):
            raise PreconditionError("MultitaskHedge needs a MultitaskSet")
        super().__init__(decision_set, eta)
        self.cum_loss = np.zeros(decision_set.dimension)

    def _block_dist(self, sl):
        s = -self.eta * self.cum_loss[sl]
        s = s - s.max()
        w = np.exp(s)
        return w / w.sum()

    def _compute_policy(self):
        policy = np.empty(self.decision_set.dimension)
        for sl in self.decision_set.block_slices:
            policy[sl] = self._block_dist(sl)
        return policy

    def _absorb(self, y):
        self.cum_loss += y

    def sample(self, rng):
        x = np.zeros(self.decision_set.dimension)
        gen = rng.generator
        for sl in self.decision_set.block_slices:
            p = self._block_dist(sl)
            x[sl.start + gen.choice(p.size, p=p)] = 1.0
        return x


def make_hedge(decision_set, eta, cap=None):
    """Exact Hedge in the representation suited to the decision set."""
    if isinstance(decision_set, MSet):
        return MSetHedge(decision_set, eta)
    if isinstance(decision_set, MultitaskSet):
        return MultitaskHedge(decision_set, eta)
    return ExplicitHedge(decision_set, eta, cap=cap)


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

    def __init__(self, decision_set, eta, method="newton"):
        if not isinstance(decision_set, MSet):
            raise PreconditionError("MSetOmd needs an MSet")
        super().__init__(decision_set, eta)
        self.m = decision_set.m
        self.iterate = np.full(decision_set.dimension,
                               self.m / decision_set.dimension)
        self.method = method
        self._lam = 0.0
        self._last = None

    def _compute_policy(self):
        return self.iterate.copy()

    def _absorb(self, y):
        step = self.eta * y
        new, self._lam = mset_prox(self.iterate, step, self.m,
                                   lam_init=self._lam, method=self.method)
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


class MultitaskOmd(Learner):
    """Negative-entropy mirror descent on a product of expert simplices.

    The proximal step is closed-form: multiply each block's coordinates by
    ``exp(-eta * y)`` and renormalise the block.  On products of simplices
    this coincides with per-block Hedge, which the tests assert.
    """

    name = "omd-multitask"

    def __init__(self, decision_set, eta):
        if not isinstance(decision_set, MultitaskSet):
            raise PreconditionError("MultitaskOmd needs a MultitaskSet")
        super().__init__(decision_set, eta)
        self.iterate = np.concatenate(
            [np.full(b, 1.0 / b) for b in decision_set.block_sizes])

    def _compute_policy(self):
        return self.iterate.copy()

    def _absorb(self, y):
        scaled = self.iterate * np.exp(-self.eta * y)
        for sl in self.decision_set.block_slices:
            scaled[sl] /= scaled[sl].sum()
        self.iterate = scaled

    def sample(self, rng):
        x = np.zeros(self.decision_set.dimension)
        gen = rng.generator
        for sl in self.decision_set.block_slices:
            p = self.iterate[sl]
            x[sl.start + gen.choice(p.size, p=p / p.sum())] = 1.0
        return x


class DilatedOmd(Learner):
    """Mirror descent with dilated entropy on a flow polytope.

    The fast path exploits iterate equivalence with path-space Hedge and
    runs weight pushing in O(|E|) per round.  ``numeric=True`` instead
    solves each proximal step with the damped-Newton KKT oracle; the two
    must agree, and the equivalence checker runs the numeric side so the
    comparison is non-circular.
    """

    name = "omd-dilated"

    def __init__(self, decision_set, eta, numeric=False, tol=1e-10):
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError("DilatedOmd needs a DagPathSet")
        super().__init__(decision_set, eta)
        self.dag = decision_set.dag
        self.numeric = numeric
        self.tol = tol
        self.reg = DilatedEntropy(self.dag)
        if numeric:
            self.iterate = uniform_path_flow(self.dag)
        else:
            self.cum_loss = np.zeros(self.dag.n_edges)

    def _compute_policy(self):
        if self.numeric:
            return self.iterate.copy()
        return weight_pushing_marginals(self.dag, -self.eta * self.cum_loss)

    def _absorb(self, y):
        if self.numeric:
            linear = self.eta * y - self.reg.grad(self.iterate)
            self.iterate, _ = flow_prox_newton(self.dag, self.reg,
                                               self.iterate, linear,
                                               tol=self.tol)
        else:
            self.cum_loss += y

    def sample(self, rng):
        return sample_path(self.dag, self.propose(), rng)


class EntropyDagOmd(Learner):
    """Shifted-loss negative-entropy mirror descent on a flow polytope.

    Each observed loss is re-potentialed into an equivalent non-negative
    vector (constant shift along every path), then a multiplicative edge
    update is projected back onto the polytope under negative entropy by
    coordinate ascent on vertex potentials.  ``solver="newton"`` switches
    the projection to the KKT oracle for cross-checks.
    """

    name = "omd-entropy-dag"

    def __init__(self, decision_set, eta, solver="sinkhorn", tol=1e-10):
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError("EntropyDagOmd needs a DagPathSet")
        super().__init__(decision_set, eta)
        self.dag = decision_set.dag
        self.solver = solver
        self.tol = tol
        self.reg = NegativeEntropy()
        self.iterate = self._project(np.zeros(self.dag.n_edges),
                                     uniform_path_flow(self.dag))

    def _project(self, log_w, start):
        if self.solver == "newton":
            x, _ = flow_prox_newton(self.dag, self.reg, start, -log_w,
                                    tol=self.tol)
            return x
        x, _ = sinkhorn_flow_projection(self.dag, log_w, tol=self.tol)
        return x

    def _compute_policy(self):
        return self.iterate.copy()

    def _absorb(self, y):
        shifted, _ = shift_losses(self.dag, y)
        log_w = np.log(self.iterate) - self.eta * shifted
        self.iterate = self._project(log_w, self.iterate)

    def sample(self, rng):
        return sample_path(self.dag, self.iterate, rng)


# ---------------------------------------------------------------------------
# loss shifting and hindsight
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
    dist = dag.shortest_dists_from_source(y)
    shifted = y + dist[dag.compiled.tails] - dist[dag.compiled.heads]
    return shifted, float(-dist[dag.sink])


def best_in_hindsight(decision_set, losses):
    """Exact loss minimizer over the whole stream; ``(vertex, value)``."""
    losses = list(losses)
    if not losses:
        raise PreconditionError("need at least one loss vector")
    total = np.sum(np.asarray(losses, dtype=float), axis=0)
    return decision_set.best_vertex(total)
