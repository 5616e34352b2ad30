"""Vertex samplers whose output matches a mixed policy in expectation.

Every sampler draws a binary vertex ``x`` of the decision set so that
``E[x]`` equals the supplied fractional policy coordinate-by-coordinate.
Randomness flows through :class:`RngStream`, a counter-based generator that
is fully determined by its key, so identical keys reproduce identical draws.

A path draw over a DAG is split in two: :func:`path_cdfs` builds the CDF
tables of any number of flows in one batched pass, and :func:`walk_path`
walks one of them with one uniform per hop.  :func:`sample_path` is the
one-flow case.  A planned :class:`PathHedge` builds the tables of a whole
chunk of rounds once; on a graph whose walks all take ``Dag.hop_count``
hops it takes a chunk's uniforms in one call and walks all its rows at
once (:func:`walk_paths`), otherwise one row per round, with the draws of
:func:`sample_path` either way.
"""

from bisect import bisect_right

import numpy as np

from .errors import DegenerateVertex, PreconditionError


#: A vertex whose out-edges carry at most this much flow has none.
_NO_FLOW = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)


class RngStream:
    """Deterministic random stream keyed by a master seed plus sub-indices.

    Built on the counter-based Philox generator: streams with distinct keys
    are statistically independent, and the same key always yields the same
    sequence.  Derive child streams with :meth:`substream` rather than
    sharing one stream across components.  A negative seed or key raises
    :class:`PreconditionError`.
    """

    def __init__(self, seed, *key):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        if min((self.seed, *self.key)) < 0:
            raise PreconditionError(f"seed and key must be non-negative, got "
                                    f"seed {self.seed}, key {self.key}")
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def substream(self, *key):
        """Fresh independent stream keyed below this one."""
        return RngStream(self.seed, *(self.key + tuple(int(k) for k in key)))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"


def path_cdfs(dag, flows):
    """CDF tables of the Markovian path draw for the rows of ``flows``, a
    ``(k, n_edges)`` array of edge flows: the walk of :func:`walk_path`
    leaves vertex ``u`` along edge ``e`` with probability
    ``flows[r, e] / flows[r, u]``.

    Row ``r`` of the ``(k, slots)`` array ``cdf`` holds the CDF of every
    branching vertex under ``flows[r]``, laid out by ``Dag.draw_layout``.
    All ``k`` rows take one pass per out-degree group: a gather, a row-wise
    ``add.reduce``, a divide, ``add.accumulate`` (the cumsum) and a divide
    by the last column.  These are the steps ``Generator.choice(len(out),
    p=...)`` takes for one vertex, row by row and bit for bit, so a table
    does not depend on the other rows built with it.

    Returns ``(cdf, dead)``.  ``dead[r]`` is the set of vertices that row
    ``r`` cannot leave: the graph's dead ends and, in a row where some edge
    carries at most ``_NO_FLOW`` (a thin row), each vertex whose outflow is
    that small.  It is ``None`` for a row with a negative or non-finite
    entry, or whose outflow at some vertex overflows, which
    :func:`walk_path` rejects.
    """
    flows = np.asarray(flows, dtype=float)
    groups, (single_verts, single_edges), _, _, edge_at, _, dead_ends = (
        dag.draw_layout)
    k = len(flows)
    dead = [dead_ends] * k
    lowest = flows.min(initial=np.inf)  # NaN if any entry is
    # under this bound no outflow sum overflows: it has at most n_edges
    # terms, and rounding makes it far less than twice their exact sum
    bounded = float(flows.max(initial=0.0)) * (2 * dag.n_edges) <= _FLOAT_MAX
    if not (lowest >= 0.0 and bounded):
        bad = _unwalkable(flows, groups)
        for r in np.flatnonzero(bad).tolist():
            dead[r] = None
        # such a row is never walked; ones keep its table quiet
        flows = np.where(bad[:, None], 1.0, flows)
        lowest = flows.min(initial=np.inf)
    thin = lowest <= _NO_FLOW  # only then can a vertex lack outflow
    cdf = np.empty((k, len(edge_at) - len(single_verts)))  # branching slots
    empties, start = [], 0
    for verts, edges in groups:
        # (k, vertices, degree) in C order, so that add.reduce sums each
        # vertex's row as the one-row call does (pairwise); flows[:, edges]
        # would put the k axis innermost and sum the rows left to right
        mass = flows.take(edges, axis=1)
        total = np.add.reduce(mass, axis=2, keepdims=True)
        if thin:
            empty = total[..., 0] <= _NO_FLOW
            empties.append((verts, empty))
            # such a row is never read; 1 / 1 in place of 0 / 0 keeps it quiet
            total = np.where(empty[..., None], 1.0, total)
            mass = np.where(empty[..., None], 1.0, mass)
        # gen.choice(k, p=mass / total) row by row, minus its checks
        rows = np.add.accumulate(mass / total, axis=2)  # its cumsum
        rows /= rows[..., -1:]
        cdf[:, start:start + edges.size] = rows.reshape(k, -1)
        start += edges.size
    if thin:
        for r in np.flatnonzero((flows <= _NO_FLOW).any(axis=1)).tolist():
            starved = [single_verts[flows[r, single_edges] <= _NO_FLOW]]
            starved += [verts[empty[r]] for verts, empty in empties]
            dead[r] = dead_ends.union(*(v.tolist() for v in starved))
    return cdf, dead


def _unwalkable(flows, groups):
    """The rows of ``flows`` with a negative or non-finite entry, or with a
    vertex of ``groups`` whose outflow sum overflows."""
    bad = ~((flows >= 0.0) & (flows < np.inf)).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _, edges in groups:
            total = np.add.reduce(flows.take(edges, axis=1), axis=2)
            bad |= ~(total < np.inf).all(axis=1)
    return bad


def walk_path(dag, cdf, dead, rng):
    """Walk from the source to the sink by one row of :func:`path_cdfs`:
    ``cdf``, that row as a list, and its ``dead`` set.

    Each hop takes one uniform of ``rng`` and one ``bisect_right`` in the
    vertex's CDF, which reads no entry at a vertex of out-degree 1, so the
    path and the generator state afterwards are those of one
    ``Generator.choice`` per vertex on the way.  Raises
    :class:`PreconditionError` for a ``dead`` of ``None`` before any draw,
    and :class:`DegenerateVertex` on reaching a vertex of ``dead``.

    Returns the list of the path's edges, from the source on.
    """
    if dead is None:
        raise PreconditionError("flow must be finite and non-negative")
    _, _, lo, hi, edge_at, head_at, _ = dag.draw_layout
    uniform = rng.generator.random
    path = []
    u, sink = dag.source, dag.sink
    while u != sink:
        if u in dead:
            raise DegenerateVertex(f"no outgoing flow at vertex {u}")
        slot = bisect_right(cdf, uniform(), lo[u], hi[u])
        path.append(edge_at[slot])
        u = head_at[slot]
    return path


def walk_paths(dag, cdf, dead, uniforms):
    """Walk the rows of :func:`path_cdfs` tables all at once, one hop per
    step, on a graph where every walk takes ``hops = dag.hop_count`` hops.

    ``cdf`` and ``dead`` are ``k`` rows of the tables and their dead sets,
    ``uniforms`` a ``(k, hops)`` array: row ``r`` walks by its uniforms in
    turn, as :func:`walk_path` does by one stream that gives them.  At
    vertex ``u`` a row leaves by slot ``lo[u]`` plus the number of its CDF
    entries in ``[lo[u], hi[u])`` that are at most the uniform.  A row of
    ``path_cdfs`` is sorted, so that is ``bisect_right``, bit for bit.

    Returns ``(edges, error)``.  ``edges`` is a ``(j, hops)`` array of the
    edges that rows ``0`` to ``j - 1`` take, hop by hop, and ``error`` is
    what :func:`walk_path` raises on row ``j``: the first row with a
    ``dead`` of ``None``, or whose walk meets a vertex of its dead set
    first.  ``error`` is None, and ``j`` is ``k``, when no row fails.
    """
    _, _, lo, hi, edge_at, head_at, _ = dag.draw_layout
    lo, edge_at, head_at = np.array(lo), np.array(edge_at), np.array(head_at)
    width = np.array(hi) - lo
    reach = np.arange(width.max(initial=0))  # the most entries a vertex reads
    k, hops = np.shape(uniforms)
    error = None
    j = next((r for r, d in enumerate(dead) if d is None), k)
    if j < k:
        error = PreconditionError("flow must be finite and non-negative")
    rows = np.arange(j)[:, None]
    edges = np.empty((j, hops), dtype=np.intp)
    at = np.empty((j, hops), dtype=np.intp)  # the vertex each hop leaves
    u = np.full(j, dag.source)
    for h in range(hops):
        at[:, h] = u
        slot = first = lo[u]
        if reach.size:
            # a vertex's entries sit in [first, first + width); the mask
            # drops what lies past them, the clip only keeps it in range
            read = np.minimum(first[:, None] + reach, cdf.shape[1] - 1)
            below = cdf[rows, read] <= uniforms[:j, h, None]
            slot = first + (below & (reach < width[u][:, None])).sum(axis=1)
        edges[:, h] = edge_at[slot]
        u = head_at[slot]
    for r in range(j):
        if dead[r]:  # only a thin row, or a graph with dead ends, has one
            stop = next((v for v in at[r].tolist() if v in dead[r]), None)
            if stop is not None:
                error = DegenerateVertex(f"no outgoing flow at vertex {stop}")
                return edges[:r], error
    return edges, error


def sample_path(dag, flow, rng):
    """Draw an s-t path by the Markovian rule: leave vertex ``u`` along edge
    ``e`` with probability ``flow[e] / flow[u]``.

    The returned indicator vector has expectation exactly ``flow`` whenever
    ``flow`` is a unit s-t flow.  The call builds the flow's one-row CDF
    table (:func:`path_cdfs`, which also checks the flow) and walks it
    (:func:`walk_path`), one uniform and one binary search per hop.  Each
    vertex's draw is the one ``Generator.choice(len(out), p=...)`` makes
    (cumulative sum, one uniform, binary search), so paths and the
    generator state afterwards match it bit for bit, without its per-call
    checks.  A planned :class:`PathHedge` walks the same tables, built for
    a chunk of rounds at once, by the same uniforms of its stream in the
    same order, so its draws are those of this call on each round's flow.

    Parameters
    ----------
    dag : Dag
    flow : array of shape (n_edges,)
        A point of the flow polytope (see ``flow_check``).
    rng : RngStream

    Returns
    -------
    ndarray of 0/1 floats, the edge-indicator of the sampled path.

    Raises :class:`PreconditionError` if ``flow`` has a negative or
    non-finite entry, and :class:`DegenerateVertex` at a vertex on the way
    with no outgoing flow.
    """
    cdf, (dead,) = path_cdfs(dag, np.asarray(flow, dtype=float)[None])
    x = np.zeros(dag.n_edges)
    x[walk_path(dag, cdf[0].tolist(), dead, rng)] = 1.0
    return x


def sample_mset(policy, m, rng):
    """Draw an exactly-m-of-d subset with inclusion probabilities ``policy``.

    Uses systematic (Madow) sampling on a randomly permuted coordinate
    order: a single uniform offset is swept through the prefix sums, so the
    draw takes O(d), always selects exactly ``m`` coordinates, and includes
    coordinate ``i`` with probability exactly ``policy[i]``.

    Parameters
    ----------
    policy : array in [0,1]^d summing to m (tolerance 1e-9)
    m : int
    rng : RngStream
    """
    policy = np.asarray(policy, dtype=float)
    total = policy.sum()
    if abs(total - m) > 1e-9:
        raise PreconditionError(f"policy sums to {total!r}, expected {m}")
    if policy.min() < -1e-12 or policy.max() > 1 + 1e-12:
        raise PreconditionError("policy coordinates must lie in [0, 1]")
    gen = rng.generator
    perm = gen.permutation(policy.size)
    cum = np.cumsum(policy[perm])
    cum[-1] = float(m)  # guard the last prefix against rounding drift
    u = gen.uniform()
    hits = np.ceil(cum - u)
    selected = hits > np.concatenate(([0.0], hits[:-1]))
    x = np.zeros(policy.size)
    x[perm[selected]] = 1.0
    if int(x.sum()) != int(m):
        raise DegenerateVertex("systematic sweep selected a wrong count")
    return x


def sample_explicit(vertices, weights, rng):
    """Categorical draw of a row of ``vertices`` proportional to ``weights``."""
    weights = np.asarray(weights, dtype=float)
    if weights.min() < 0 or not np.all(np.isfinite(weights)):
        raise PreconditionError("weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise PreconditionError("weights must not be all zero")
    idx = rng.generator.choice(weights.size, p=weights / total)
    return np.array(vertices[idx], dtype=float)
