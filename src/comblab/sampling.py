"""Vertex samplers whose output matches a mixed policy in expectation.

Every sampler draws a binary vertex ``x`` of the decision set so that
``E[x]`` equals the supplied fractional policy coordinate-by-coordinate.
Randomness flows through :class:`RngStream`, a counter-based generator that
is fully determined by its key, so identical keys reproduce identical draws.
"""

from bisect import bisect_right

import numpy as np

from .errors import DegenerateVertex, PreconditionError


#: A vertex whose out-edges carry at most this much flow has none.
_NO_FLOW = 1e-12


class RngStream:
    """Deterministic random stream keyed by a master seed plus sub-indices.

    Built on the counter-based Philox generator: streams with distinct keys
    are statistically independent, and the same key always yields the same
    sequence.  Derive child streams with :meth:`substream` rather than
    sharing one stream across components.
    """

    def __init__(self, seed, *key):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def substream(self, *key):
        """Fresh independent stream keyed below this one."""
        return RngStream(self.seed, *(self.key + tuple(int(k) for k in key)))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"


def sample_path(dag, flow, rng):
    """Draw an s-t path by the Markovian rule: leave vertex ``u`` along edge
    ``e`` with probability ``flow[e] / flow[u]``.

    The returned indicator vector has expectation exactly ``flow`` whenever
    ``flow`` is a unit s-t flow.  Each call builds one CDF table: the CDF
    of every branching vertex, one row pass per out-degree
    (``Dag.draw_layout``).  The walk then takes one uniform and one binary
    search per hop.  Each vertex's draw is still the one
    ``Generator.choice(len(out), p=...)`` makes (cumulative sum, one
    uniform, binary search), so paths and the generator state afterwards
    match it bit for bit, without its per-call checks.

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
    flow = np.asarray(flow, dtype=float)
    lowest = flow.min(initial=np.inf)  # NaN if any entry is
    if not (lowest >= 0.0 and flow.max(initial=0.0) < np.inf):
        raise PreconditionError("flow must be finite and non-negative")
    groups, singles, lo, hi, edge_at, head_at, dead = dag.draw_layout
    thin = lowest <= _NO_FLOW  # only then can a vertex lack outflow
    if thin:
        verts, edges = singles
        dead = dead.union(verts[flow[edges] <= _NO_FLOW].tolist())
    cdf = []
    for verts, edges in groups:
        mass = flow[edges]
        total = np.add.reduce(mass, axis=1, keepdims=True)
        if thin:
            empty = total[:, 0] <= _NO_FLOW
            dead = dead.union(verts[empty].tolist())
            # such a row is never read; 1 / 1 in place of 0 / 0 keeps it quiet
            total = np.where(empty[:, None], 1.0, total)
            mass = np.where(empty[:, None], 1.0, mass)
        # gen.choice(k, p=mass / total) row by row, minus its checks
        rows = np.add.accumulate(mass / total, axis=1)  # its cumsum
        rows /= rows[:, -1:]
        cdf += rows.ravel().tolist()
    uniform = rng.generator.random
    path = []
    u, sink = dag.source, dag.sink
    while u != sink:
        if u in dead:
            raise DegenerateVertex(f"no outgoing flow at vertex {u}")
        slot = bisect_right(cdf, uniform(), lo[u], hi[u])
        path.append(edge_at[slot])
        u = head_at[slot]
    x = np.zeros(dag.n_edges)
    x[path] = 1.0
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
