"""Constructive hard-instance generators and their combinatorial subroutines.

Each generator materialises one loss-vector stream from a lower-bound
construction: Rademacher segments over a shattered index set, blockwise
sign patterns on m-sets, the rate-aware two-phase instance that defeats
Hedge on m-sets, per-block phases for multitask sets, and the layered-DAG
instance.  Every adversary is oblivious: a stream is its ``(T, d)`` array
of losses, filled when it is built from randomness drawn under a
counter-based key, so ``loss(t)``, a copy of one row, is pure and
reproducible.

All emitted vectors satisfy the unit action-loss bound by construction.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import ENUMERATION_CAP, Dag, MSet
from .errors import CapExceeded, PreconditionError, ShatteringNotFound


# ---------------------------------------------------------------------------
# shattering
# ---------------------------------------------------------------------------

@dataclass
class ShatteredSet:
    """Index set every 0/1 pattern of which is realised by some vertex."""
    indices: tuple
    witnesses: dict = field(repr=False)

    @property
    def size(self):
        return len(self.indices)

    def verify(self):
        """True iff every pattern has a witness matching it on the indices."""
        idx = list(self.indices)
        for pattern in itertools.product((0, 1), repeat=len(idx)):
            x = self.witnesses.get(pattern)
            if x is None or not np.array_equal(x[idx], np.array(pattern, dtype=float)):
                return False
        return True


def find_shattered_set(decision_set, k):
    """First (lexicographically) index subset of size ``k`` that is shattered.

    Exhaustive search over the enumerated vertices, with witnesses taken
    first-in-enumeration-order per pattern.  For m-sets too large to
    enumerate the answer is closed-form: every set of ``k <= min(m, d-m)``
    coordinates is shattered (patterns are completed with ones on the
    highest free coordinates) and no larger set can be, so the first
    ``k`` coordinates are returned with constructed witnesses.  Any other
    set past ``ENUMERATION_CAP`` vertices raises :class:`PreconditionError`
    before it enumerates.
    """
    d = decision_set.dimension
    if not (1 <= k <= d):
        raise PreconditionError(f"need 1 <= k <= d, got k={k}")
    count = decision_set.count()
    if count > ENUMERATION_CAP and not isinstance(decision_set, MSet):
        raise PreconditionError(
            f"the shattered-set search enumerates the vertices, and this "
            f"set has {count}, past ENUMERATION_CAP = {ENUMERATION_CAP}")
    if count > ENUMERATION_CAP:
        m = decision_set.m
        if k > min(m, d - m):
            raise ShatteringNotFound(
                f"m-sets shatter at most min(m, d-m) = {min(m, d - m)} indices")
        witnesses = {}
        for pattern in itertools.product((0, 1), repeat=k):
            x = np.zeros(d)
            x[: k] = pattern
            fill = m - int(sum(pattern))
            if fill:
                x[d - fill: d] = 1.0  # top coordinates are free since k <= d - m
            witnesses[pattern] = x
        return ShatteredSet(tuple(range(k)), witnesses)

    vertices = decision_set.enumerate_vertices()
    mat = np.asarray(vertices)
    full = 2 ** k
    for combo in itertools.combinations(range(d), k):
        seen = {}
        for row in mat:
            key = tuple(int(b) for b in row[list(combo)])
            if key not in seen:
                seen[key] = row
                if len(seen) == full:
                    return ShatteredSet(tuple(combo), seen)
    raise ShatteringNotFound(f"no shattered index set of size {k}")


def universal_shattering_size(decision_set):
    """``max(floor(log2|X| / log2(2 e d)), 1)`` -- the guaranteed size."""
    log2_count = decision_set.log_count() / math.log(2.0)
    denom = math.log2(2.0 * math.e * decision_set.dimension)
    return max(math.floor(log2_count / denom + 1e-12), 1)


# ---------------------------------------------------------------------------
# sign distributions
# ---------------------------------------------------------------------------

#: Below this many experts the sign distribution degenerates to a coin on
#: the first coordinate; at or above it, all coordinates get fair
#: independent signs.  Eight is the smallest threshold compatible with the
#: max-of-random-walks bound backing the construction.
DK_THRESHOLD = 8


def dk_sample(n_experts, rng, size=None):
    """Zero-mean hard-instance sign vectors for an n-experts block.

    Returns one vector of length ``n_experts`` (or ``size`` of them,
    stacked in rows).  Small blocks get +/-1 on the first coordinate and
    zeros elsewhere; blocks of at least :data:`DK_THRESHOLD` experts get
    independent fair signs on every coordinate.
    """
    if n_experts < 2:
        raise PreconditionError("need at least 2 experts")
    gen = rng.generator
    rows = 1 if size is None else int(size)
    out = np.zeros((rows, n_experts))
    if n_experts < DK_THRESHOLD:
        out[:, 0] = gen.integers(0, 2, size=rows) * 2.0 - 1.0
    else:
        out[:, :] = gen.integers(0, 2, size=(rows, n_experts)) * 2.0 - 1.0
    return out[0] if size is None else out


def largest_remainder(total, shares):
    """Integer apportionment of ``total`` proportional to ``shares``."""
    shares = np.asarray(shares, dtype=float)
    quotas = total * shares / shares.sum()
    base = np.floor(quotas).astype(int)
    short = total - int(base.sum())
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:short]] += 1
    return base


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

class LossStream:
    """One oblivious loss sequence: the ``(T, d)`` array ``losses``.

    Every sequence is fixed before round 1.  The base constructor checks
    the horizon and allocates ``losses`` as zeros; each subclass fills it
    in its own constructor, drawing all of its randomness there.  ``loss``
    is the one accessor: round ``t``'s loss, a copy of row ``t - 1``.
    Subclasses bind it in their own class dict (``loss = LossStream.loss``)
    so that each class's ``loss`` and ``__init__`` can be wrapped there.
    """

    def __init__(self, dimension, horizon):
        if horizon < 1:
            raise PreconditionError(f"need horizon >= 1, got {horizon}")
        self.dimension = int(dimension)
        self.horizon = int(horizon)
        self.losses = np.zeros((self.horizon, self.dimension))

    def loss(self, t):
        if not (1 <= t <= self.horizon):
            raise PreconditionError(f"round {t} outside 1..{self.horizon}")
        return self.losses[t - 1].copy()


class ConstantStream(LossStream):
    def __init__(self, vector, horizon):
        vector = np.asarray(vector, dtype=float)
        super().__init__(vector.size, horizon)
        self.losses[:] = vector

    loss = LossStream.loss


class UniversalStream(LossStream):
    """Rademacher signs on one shattered coordinate per time segment.

    The segment count is the size of ``shattered``, by default a shattered
    set of the guaranteed size for the set; rounds are split as evenly as
    possible with the remainder spread over the earliest segments.  The
    shattered set depends on the set and its size alone, so streams of
    several trials can share one found beforehand.
    """

    def __init__(self, decision_set, horizon, rng, shattered=None):
        super().__init__(decision_set.dimension, horizon)
        if shattered is None:
            shattered = find_shattered_set(
                decision_set, universal_shattering_size(decision_set))
        self.shattered = shattered
        k = shattered.size
        sizes = [horizon // k + (1 if i < horizon % k else 0) for i in range(k)]
        self.segment_sizes = sizes
        coordinates = np.repeat(np.array(shattered.indices, dtype=int), sizes)
        signs = rng.generator.integers(0, 2, size=horizon) * 2.0 - 1.0
        self.losses[np.arange(horizon), coordinates] = signs

    loss = LossStream.loss


class MSetLbStream(LossStream):
    """Blockwise sign patterns scaled by 1/m; requires m to divide d."""

    def __init__(self, d, m, horizon, rng):
        if d % m != 0:
            raise PreconditionError(
                f"the block construction needs m | d, got d={d}, m={m}")
        if d // m < 2:
            raise PreconditionError("need at least two blocks (d/m >= 2)")
        super().__init__(d, horizon)
        self.m = m
        self.n_blocks = d // m
        z = dk_sample(self.n_blocks, rng, size=horizon)
        self.losses[:] = np.repeat(z, m, axis=1) / m

    loss = LossStream.loss


def hedge_killer_base_rate(d, m, horizon):
    """The rate threshold separating the two hard-instance branches."""
    return math.sqrt(m * math.log(d / m) / horizon)


class HedgeKillerStream(LossStream):
    """Deterministic two-branch instance targeting Hedge at a known rate.

    Small rates get a fixed vector ``1/m`` on the first m coordinates;
    larger rates get a single-coordinate stream: a sink phase of -1 losses
    whose cumulative depth is exactly ``t0 = ln(d/m)/eta`` (rounds 1 to
    ``floor(t0)``, then ``-(t0 - floor(t0))`` in round ``ceil(t0)`` when
    ``t0`` is fractional), then +1/-1 alternation.
    """

    def __init__(self, d, m, horizon, eta):
        if not (1 <= m <= d // 2):
            raise PreconditionError("need 1 <= m <= d/2")
        super().__init__(d, horizon)
        self.m = m
        self.eta = float(eta)
        self.base_rate = hedge_killer_base_rate(d, m, horizon)
        self.small_branch = self.eta <= self.base_rate
        if self.small_branch:
            self.t0 = None
            self.losses[:, :m] = 1.0 / m
            return
        self.t0 = t0 = math.log(d / m) / self.eta
        lo, hi = math.floor(t0), math.ceil(t0)
        first = self.losses[:, 0]  # row t - 1 is round t
        first[:lo] = -1.0
        if lo < hi <= horizon:
            first[hi - 1] = -(t0 - lo)
        first[hi::2] = 1.0
        first[hi + 1::2] = -1.0

    loss = LossStream.loss


class MultitaskPhaseStream(LossStream):
    """One experts-problem hard instance per block, played in phases.

    Phase lengths apportion the horizon proportionally to ``ln`` of the
    block sizes (largest-remainder rounding).
    """

    def __init__(self, block_sizes, horizon, rng):
        sizes = [int(b) for b in block_sizes]
        if not sizes or any(b < 2 for b in sizes):
            raise PreconditionError("each block needs at least 2 experts")
        if horizon < len(sizes):
            raise PreconditionError("need at least one round per block")
        super().__init__(sum(sizes), horizon)
        self.block_sizes = sizes
        self.phase_lengths = largest_remainder(
            horizon, [math.log(b) for b in sizes])
        starts = np.concatenate([[0], np.cumsum(sizes)])
        self.block_of_round = np.repeat(np.arange(len(sizes)), self.phase_lengths)
        for t in range(horizon):
            b = self.block_of_round[t]
            z = dk_sample(sizes[b], rng)
            self.losses[t, starts[b]: starts[b] + sizes[b]] = z

    loss = LossStream.loss


class DagLayeredStream(LossStream):
    """Per-layer sign patterns on the first-hop edges of a layered DAG.

    The rounds split into one phase of ``T // layers`` rounds per layer,
    in layer order; the leftover rounds at the end carry zero losses.
    """

    def __init__(self, first_hop_edges, n_edges, horizon, rng):
        super().__init__(n_edges, horizon)
        per_phase = horizon // len(first_hop_edges)
        if per_phase == 0:
            return
        width = len(first_hop_edges[0])
        z = dk_sample(width, rng, size=per_phase * len(first_hop_edges))
        for phase, edges in enumerate(first_hop_edges):
            rows = slice(phase * per_phase, (phase + 1) * per_phase)
            self.losses[rows, edges] = z[rows]

    loss = LossStream.loss


class GaussianFeasibleStream(LossStream):
    """Random feasible losses: Gaussians rescaled to a fixed dual norm.

    Harness utility (not a lower-bound construction) used for fuzzing and
    the iterate-equivalence checks.
    """

    def __init__(self, decision_set, horizon, rng, scale=0.9):
        super().__init__(decision_set.dimension, horizon)
        if not (0 < scale <= 1):
            raise PreconditionError("scale must lie in (0, 1]")
        gen = rng.generator
        raw = gen.standard_normal((horizon, self.dimension))
        norms = decision_set._dual_norms(raw)
        scaled = norms > 0
        self.losses[scaled] = scale * raw[scaled] / norms[scaled, None]

    loss = LossStream.loss


# ---------------------------------------------------------------------------
# layered hard instance for DAGs
# ---------------------------------------------------------------------------

def layered_dag(d, n_paths):
    """Layered DAG fitting an edge budget ``d`` and path budget ``n_paths``.

    Returns ``(dag, first_hop_edges, meta)``: the widest m-layer chain of
    parallel two-hop detours whose edge count stays within ``d`` and path
    count within ``n_paths``; ``first_hop_edges[i]`` lists the edge ids the
    layer-i stream plays on.
    """
    if not (16 <= 2 * d <= n_paths <= 2 ** d):
        raise PreconditionError(
            f"need 16 <= 2d <= N <= 2^d, got d={d}, N={n_paths}")
    d0 = 8 * (d // 8)
    n0 = min(n_paths, 2 ** (d0 // 4))
    # the most layers m <= d0 / 8 with (d0 / 2m) ** m <= n0, in exact
    # integers.  m ln(d0 / 2m) increases while d0 / 2m > e, so the counts
    # that fit are a prefix, found by bisection; m = 1 fits since
    # n0 >= d0 / 2.
    lo, hi = 1, d0 // 8
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if d0 ** mid <= n0 * (2 * mid) ** mid:
            lo = mid
        else:
            hi = mid - 1
    m = lo
    width = d0 // (2 * m)
    # spine vertices 0..m; middle vertex (i, j) sits between spine i-1 and i
    def mid(i, j):
        return (m + 1) + (i - 1) * width + j

    edges = []
    first_hops = []
    for i in range(1, m + 1):
        hops = []
        for j in range(width):
            hops.append(len(edges))
            edges.append((i - 1, mid(i, j)))
        for j in range(width):
            edges.append((mid(i, j), i))
        first_hops.append(np.array(hops, dtype=int))
    dag = Dag(m + 1 + m * width, edges, 0, m)
    assert dag.n_edges == 2 * m * width <= d
    assert dag.path_count() == width ** m <= n_paths
    meta = {"d0": d0, "n0": n0, "layers": m, "width": width,
            "edges": dag.n_edges, "paths": dag.path_count()}
    return dag, first_hops, meta


def dag_hard_instance(d, n_paths, horizon):
    """Layered DAG within the budgets, plus a factory for its loss stream.

    Returns ``(dag, stream_factory, meta)`` where ``stream_factory(rng)``
    creates the per-layer phase stream over ``horizon`` rounds.
    """
    dag, first_hops, meta = layered_dag(d, n_paths)

    def factory(rng):
        return DagLayeredStream(first_hops, dag.n_edges, horizon, rng)

    return dag, factory, meta


# ---------------------------------------------------------------------------
# exact Hedge mass on the bad set
# ---------------------------------------------------------------------------

def bad_set_mass(d, m, weighted_cum_loss):
    """Exact Hedge probability of the bad set under the fixed-loss instance.

    The instance loads ``1/m`` on the first ``m`` coordinates, so after
    some rounds each of those coordinates carries the same cumulative loss
    and a vertex's weight depends only on its overlap ``r`` with the first
    block: ``exp(-w * r)`` with ``w = eta * (per-coordinate cumulative
    loss)`` passed as ``weighted_cum_loss``.  The bad set keeps at least
    ``floor(m/20)`` of the first coordinates unselected.  Computed by
    binomial sums over the overlap in the log domain.
    """
    if d > 10_000:
        raise CapExceeded(f"d={d} exceeds cap 10000")
    if not (1 <= m <= d // 2):
        raise PreconditionError("need 1 <= m <= d/2")
    w = float(weighted_cum_loss)
    r_min = max(0, 2 * m - d)
    r_bad_max = m - m // 20  # overlap this small means >= floor(m/20) misses
    log_terms = []
    bad = []
    for r in range(r_min, m + 1):
        log_count = (math.lgamma(m + 1) - math.lgamma(r + 1)
                     - math.lgamma(m - r + 1)
                     + math.lgamma(d - m + 1) - math.lgamma(m - r + 1)
                     - math.lgamma(d - 2 * m + r + 1))
        log_terms.append(log_count - w * r)
        bad.append(r <= r_bad_max)
    log_terms = np.array(log_terms)
    bad = np.array(bad)
    peak = log_terms.max()
    weights = np.exp(log_terms - peak)
    return float(weights[bad].sum() / weights.sum())
