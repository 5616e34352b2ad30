"""Vertex samplers whose output matches a mixed policy in expectation.

Every sampler draws a binary vertex ``x`` of the decision set so that
``E[x]`` equals the supplied fractional policy coordinate-by-coordinate.
Randomness flows through :class:`RngStream`, a counter-based generator that
is fully determined by its key, so identical keys reproduce identical draws.

A path draw over a DAG takes one uniform for each vertex with two or more
out-edges, whether or not the path visits it: :func:`draw_paths` draws
any number of rows at once, and :func:`sample_path` is one row of it.  A
planned :class:`PathHedge` draws a chunk of rounds in one call, by the
uniforms that per-round draws would take.
"""

import contextlib

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


def draw_paths(dag, flows, uniforms):
    """Draw one s-t path for each row of ``flows``, a ``(k, n_edges)`` array
    of edge flows, by the Markovian rule: leave vertex ``u`` along edge
    ``e`` with probability ``flows[r, e]`` over the outflow of ``u``.

    Row ``r`` takes the uniforms ``uniforms[r]``, one for each vertex of
    out-degree 2 or more, in ``Dag.draw_layout`` order.  Every such vertex
    picks an out-edge, whether the path visits it or not: the number of its
    star's running flow sums, all but the last, that are at most its
    uniform times the last.  A vertex of out-degree 1 picks its edge.  One
    pass per out-degree group picks for all rows at once, and each row then
    follows its picks from the source.  A row's picks read that row alone,
    so it draws the same path alone or among others.

    Returns ``(paths, error)``.  ``paths`` lists the edges of rows ``0`` to
    ``j - 1``, from the source on, and ``error`` is what row ``j`` raises:
    :class:`PreconditionError` for a row with a negative or non-finite
    entry, or whose outflow at some vertex overflows, and
    :class:`DegenerateVertex` where its path reaches a vertex other than
    the sink whose outflow is at most ``_NO_FLOW`` (a dead end has none).
    ``error`` is None, and ``j`` is ``k``, when no row fails.
    """
    flows = np.asarray(flows, dtype=float)
    layout = dag.draw_layout
    lowest = flows.min(initial=np.inf)  # NaN if any entry is
    thin = not lowest > _NO_FLOW  # only then can a vertex lack outflow
    bad = None if _bounded(dag, flows, lowest) else ~(
        (flows >= 0.0) & (flows < np.inf)).all(axis=1)
    picks = np.empty((len(flows), dag.n_vertices), dtype=np.intp)
    picks[:] = layout.start  # -1: no way on
    if thin:
        verts, edges = layout.singles
        picks[:, verts] = np.where(flows[:, edges] > _NO_FLOW, edges, -1)
    col = 0
    with (np.errstate(over="ignore", invalid="ignore") if bad is not None
          else contextlib.nullcontext()):
        for verts, edges in layout.groups:
            # (k, vertices, degree): each star's running sums, in edge order
            running = np.add.accumulate(flows.take(edges, axis=1), axis=2)
            total = running[..., -1]
            point = uniforms[:, col:col + len(verts)] * total
            # the first sum past the point, which is below the last sum:
            # the number of the others at most the point
            pick = (running > point[..., None]).argmax(axis=2)
            chosen = edges[np.arange(len(verts)), pick]
            picks[:, verts] = (np.where(total > _NO_FLOW, chosen, -1) if thin
                               else chosen)
            if bad is not None:
                bad |= ~(total < np.inf).all(axis=1)
            col += len(verts)
    paths = []
    for r, step in enumerate(picks.tolist()):
        if bad is not None and bad[r]:
            return paths, PreconditionError("flow must be finite and "
                                            "non-negative")
        path, u = [], dag.source
        while u != dag.sink:
            e = step[u]
            if e < 0:
                return paths, DegenerateVertex(f"no outgoing flow at vertex {u}")
            path.append(e)
            u = layout.heads[e]
        paths.append(path)
    return paths, None


def _bounded(dag, flows, lowest):
    """Whether ``flows``, whose least entry is ``lowest``, is non-negative
    and small enough that no outflow sum overflows: it has at most
    ``n_edges`` terms, and rounding keeps it far below twice their exact
    sum.  False on a NaN entry."""
    return (lowest >= 0.0
            and float(flows.max(initial=0.0)) * (2 * dag.n_edges) <= _FLOAT_MAX)


def sample_path(dag, flow, rng):
    """Draw an s-t path by the Markovian rule: leave vertex ``u`` along edge
    ``e`` with probability ``flow[e] / flow[u]``.

    The returned indicator vector has expectation exactly ``flow`` whenever
    ``flow`` is a unit s-t flow.  The call is one row of
    :func:`draw_paths`, by one uniform of ``rng`` for each vertex of
    out-degree 2 or more, taken in one ``Generator.random`` call.

    Parameters
    ----------
    dag : Dag
    flow : array of shape (n_edges,)
        A point of the flow polytope (see ``flow_check``).
    rng : RngStream

    Returns
    -------
    ndarray of 0/1 floats, the edge-indicator of the sampled path.

    Raises :class:`PreconditionError`, before any draw, if ``flow`` has a
    negative or non-finite entry or an outflow that overflows, and
    :class:`DegenerateVertex` at a vertex on the way with no outgoing flow.
    """
    flows = np.asarray(flow, dtype=float)[None]
    shape = (1, dag.draw_layout.branching)
    if not _bounded(dag, flows, flows.min(initial=np.inf)):
        # the row check reads no uniform, so a dry run finds a rejected row
        _, error = draw_paths(dag, flows, np.zeros(shape))
        if isinstance(error, PreconditionError):
            raise error
    paths, error = draw_paths(dag, flows, rng.generator.random(shape))
    if error is not None:
        raise error
    x = np.zeros(dag.n_edges)
    x[paths[0]] = 1.0
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
    if not np.isfinite(policy).all():
        raise PreconditionError("policy must be finite")
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
