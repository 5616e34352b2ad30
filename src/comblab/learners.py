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
O(m) numpy calls.  A :class:`PathHedge` told its trial's prefix sums in
advance (:meth:`PathHedge.plan`) plays from a :class:`HedgePlan`: one pass
over an ``(E, k)`` array per chunk of ``k = PLAN_ENTRIES // E`` rounds,
shared by every planned learner of the same rate.  When such a learner
samples, its first draw in a chunk draws the paths of all the chunk's
rounds in one :func:`draw_paths` call, by the uniforms :func:`sample_path`
would take round by round.  Mirror descent with dilated entropy has the
same iterates, so the ``omd-dilated`` spec runs it too; :class:`DilatedOmd`
is the numeric KKT route kept to certify that.  Other sets use
:class:`ExplicitHedge`, one weight per enumerated vertex.  All weight
arithmetic is done in log space with max-subtraction so large eta*T never
overflows.
"""

import itertools
import math

import numpy as np

from .domain import DagPathSet, MSet
from .errors import PreconditionError, ValidationError
from .proximal import (flow_prox_newton, mset_prox, mset_prox_kkt_residual,
                       scipy_wrightomega, sinkhorn_flow_projection)
from .regularizers import DilatedEntropy, uniform_path_flow
from .sampling import draw_paths, sample_explicit, sample_mset, sample_path


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
    ``log_weights`` has shape ``(E,)``, or ``(E, k)`` for ``k`` weightings
    at once; then column ``j`` of the result is, bit for bit, the call on
    column ``j`` alone.
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

    After :meth:`plan`, the policies come from a :class:`HedgePlan` of the
    trial's prefix sums instead, bit for bit the same; ``absorb`` then only
    moves the round on.  The per-round learner samples by
    :func:`sample_path` on the round's edge marginals.  A planned one's
    first draw in a chunk takes ``rng.generator.random((rows, branching))``
    for the chunk's rounds up to the plan's last loss, draws all their
    paths from the chunk's edge marginals in one :func:`draw_paths` call
    and keeps their 0/1 vertices, which the later draws of the chunk return
    in turn.  Every draw takes ``branching`` uniforms (``Dag.draw_layout``),
    and Philox gives ``random((rows, branching))`` the doubles, and leaves
    it the state, of that many one-round draws, so the paths and the
    generator state are those of :func:`sample_path` per round, as long as
    the learner draws every round of the chunk from that one stream; a draw
    in the chunk with another ``rng`` raises :class:`PreconditionError`.  A
    round whose draw fails raises there, as the per-round draw would, and
    no later round comes from that batch.
    """

    name = "hedge"
    hedge_family = True

    def __init__(self, decision_set, eta):
        if decision_set.path_embedding is None:
            raise PreconditionError("PathHedge needs a set of DAG paths")
        super().__init__(decision_set, eta)
        self.dag, coord = decision_set.path_embedding
        self._edge_coord = np.asarray(coord)  # -1 at an edge without one
        self._edges = np.flatnonzero(coord >= 0)
        self._coords = coord[self._edges]
        self.cum_loss = np.zeros(self.dag.n_edges)  # None once planned
        self._marg = None  # edge marginals behind the cached policy
        self._round = 1
        self._plan = None
        self._draws = self._NO_DRAWS

    def plan(self, cum, shared=None):
        """Play from the trial's prefix sums: row ``t - 1`` of ``cum``
        sums the losses of rounds 1 to ``t``, which are the losses this
        learner absorbs from its current round on.

        ``shared`` is a dict of the trial's plans; learners of one set and
        rate that pass the same dict play from one :class:`HedgePlan`.
        """
        plans = {} if shared is None else shared
        key = (self.decision_set, self.eta)
        if key not in plans:
            plans[key] = HedgePlan(self, cum)
        self._plan = plans[key]
        self.cum_loss = None

    def _compute_policy(self):
        if self._plan is not None:
            return self._plan.round(self._round)
        self._marg = weight_pushing_marginals(self.dag, -self.eta * self.cum_loss)
        return np.bincount(self._coords, weights=self._marg[self._edges],
                           minlength=self.decision_set.dimension)

    def _absorb(self, y):
        self._round += 1
        if self._plan is None:
            self.cum_loss[self._edges] += y[self._coords]

    def sample(self, rng):
        if self._plan is None:
            self.propose()  # sets the edge marginals of the current round
            path = np.flatnonzero(sample_path(self.dag, self._marg, rng))
            return self._vertices([path])[0]
        row, marg = self._plan.marginals(self._round)
        held, stream, start, vertices, error = self._draws
        if held is not marg or row - start >= len(vertices) + (error is not None):
            # the chunk's first draw: its rounds up to the plan's last loss,
            # drawn at once by one batch of uniforms
            stop = max(row + 1, min(len(marg),
                                    row + 1 + len(self._plan.cum) - self._round))
            shape = (stop - row, self.dag.draw_layout.branching)
            paths, error = draw_paths(self.dag, marg[row:stop],
                                      rng.generator.random(shape))
            stream, start, vertices = rng, row, self._vertices(paths)
            self._draws = marg, rng, row, vertices, error
        elif rng is not stream:
            raise PreconditionError("a planned learner draws each chunk from "
                                    "one stream, but this draw has another")
        if row - start == len(vertices):  # the row that fails
            self._draws = self._NO_DRAWS  # no later row comes from this batch
            raise error
        return vertices[row - start]

    #: ``_draws`` before a chunk's first draw: (marginals, rng, first row,
    #: vertices, error), with no rows drawn
    _NO_DRAWS = (None, None, 0, (), None)

    def _vertices(self, paths):
        """Read-only 0/1 coordinate rows of the lists of edges ``paths``."""
        edges = itertools.chain.from_iterable(paths)
        coord = self._edge_coord[np.fromiter(edges, dtype=np.intp)]
        x = np.zeros((len(paths), self.decision_set.dimension))
        rows = np.repeat(np.arange(len(paths)), [len(p) for p in paths])
        keep = coord >= 0
        x[rows[keep], coord[keep]] = 1.0
        x.flags.writeable = False
        return x


#: entries of one :class:`HedgePlan` chunk's ``(E, k)`` arrays: a chunk
#: holds ``PLAN_ENTRIES // E`` rounds, one weight-pushing pass each (the
#: pass's temporaries took 48 MB at 2048 edges and 512 rounds)
PLAN_ENTRIES = 2 ** 16


class HedgePlan:
    """Path Hedge's policies at one rate for every round of a trial whose
    losses are known in advance.

    Round ``t`` plays the weights ``exp(-eta * L)`` of the edge sums ``L``
    of rounds before ``t``: row ``t - 2`` of the prefix sums ``cum``, and
    zero at round 1.  The rounds are built ``chunk`` at a time (at most
    :data:`PLAN_ENTRIES` entries), when a round of the chunk is first asked
    for: one :func:`weight_pushing_marginals` call over an ``(E, k)`` array,
    then each round's policy summed per coordinate in edge order, bit for
    bit the ``bincount`` of :class:`PathHedge`; each learner draws its
    paths from the chunk's ``(k, E)`` edge marginals with its own stream.
    The arrays are read-only, so learners can share them; only the latest
    chunk is kept.
    """

    def __init__(self, learner, cum):
        self.dag, self.eta, self.cum = learner.dag, learner.eta, cum
        self.dimension = learner.decision_set.dimension
        self._edges, self._coords = learner._edges, learner._coords
        self.chunk = max(1, PLAN_ENTRIES // self.dag.n_edges)
        self._index = None  # the chunk held, with its arrays:
        self._policies = self._marg = None

    def round(self, t):
        """The policy of round ``t``, a row of the chunk."""
        row = self._row(t)
        return self._policies[row]

    def marginals(self, t):
        """``(row, marg)``: the row of round ``t`` in its chunk, and the
        chunk's ``(k, E)`` edge marginals, read-only."""
        row = self._row(t)
        return row, self._marg

    def _row(self, t):
        """Row of round ``t`` in its chunk, which is built unless held."""
        if t > len(self.cum) + 1:
            raise PreconditionError(f"the plan holds {len(self.cum)} losses, "
                                    f"so it has no round {t}")
        index, row = divmod(t - 1, self.chunk)
        if index != self._index:
            self._policies, self._marg = self._build(index)
            self._index = index
        return row

    def _build(self, index):
        first = index * self.chunk  # rounds first + 1 to stop
        stop = min(first + self.chunk, len(self.cum) + 1)
        rows = self.cum[max(first - 1, 0):stop - 1]
        edge_cum = np.zeros((self.dag.n_edges, stop - first))
        edge_cum[self._edges, stop - first - len(rows):] = rows[:, self._coords].T
        marg = weight_pushing_marginals(self.dag, -self.eta * edge_cum)
        policies = np.zeros((stop - first, self.dimension))
        # row by row the bincount of PathHedge: coordinates summed in edge order
        np.add.at(policies.T, self._coords, marg[self._edges])
        marg = np.ascontiguousarray(marg.T)
        policies.flags.writeable = marg.flags.writeable = False
        return policies, marg


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
    box clipping; iterates stay inside (0, 1]^d up to underflow.  Between
    rounds the learner carries the prox's log-domain state ``u``, with
    ``2m x + ln(2m x) = u`` wherever ``x < 1`` (:func:`mset_prox`), so each
    step starts from ``u`` instead of taking the log of the iterate, and a
    coordinate that underflowed to 0 keeps a finite ``u`` and can come
    back.  The first step, with no state yet, starts from the iterate.
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
        self._u = None  # the last step's log-domain state
        self._last = None
        scipy_wrightomega()  # the step's import, paid here

    def _compute_policy(self):
        return self.iterate.copy()

    def _absorb(self, y):
        step, u_old = self.eta * y, self._u
        new, self._lam, self._u = mset_prox(self.iterate, step, self.m,
                                            lam_init=self._lam, u_old=u_old)
        self._last = (self.iterate, step, new, self._lam, u_old)
        self.iterate = new

    def kkt_residual(self):
        """(stationarity, cardinality) residuals of the last proximal step,
        measured from the state it started from: its ``u_old``, or the
        iterate on the first step."""
        if self._last is None:
            return 0.0, 0.0
        x_old, step, x_new, lam, u_old = self._last
        return mset_prox_kkt_residual(x_new, x_old, step, self.m, lam, u_old)

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
    (:func:`sinkhorn_flow_projection`).  Each update starts from the log of
    the iterate that the projection returned, so an edge whose flow
    underflowed to 0 keeps a finite log and can come back.
    """

    name = "omd-entropy-dag"

    def __init__(self, decision_set, eta):
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError("EntropyDagOmd needs a DagPathSet")
        super().__init__(decision_set, eta)
        self.dag = decision_set.dag
        self.iterate, info = sinkhorn_flow_projection(
            self.dag, np.zeros(self.dag.n_edges))
        self.log_iterate = info["log_x"]

    def _compute_policy(self):
        return self.iterate.copy()

    def _absorb(self, y):
        shifted, _ = shift_losses(self.dag, y)
        self.iterate, info = sinkhorn_flow_projection(
            self.dag, self.log_iterate - self.eta * shifted)
        self.log_iterate = info["log_x"]

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
    dist = dag.forward_pass(y, np.minimum)
    shifted = y + dist[dag.compiled.tails] - dist[dag.compiled.heads]
    return shifted, float(-dist[dag.sink])
