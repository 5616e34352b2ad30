"""Decision sets, the DAG type, norms, and feasibility checks.

A decision set is a finite family of binary vectors in {0,1}^d.  Four
variants are supported:

* :class:`ExplicitSet` -- an explicit list of vertices,
* :class:`MSet` -- all vectors with exactly m ones,
* :class:`MultitaskSet` -- one choice per block, concatenated,
* :class:`DagPathSet` -- edge indicators of s-t paths in a DAG.

Loss vectors are constrained so that every action's per-round loss lies in
[-1, 1]; equivalently the dual norm ``max_x |<x, y>|`` is at most one.  All
operations here are pure functions of their inputs.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, PreconditionError, SolverFailure

ENUMERATION_CAP = 1_000_000
FEAS_TOL = 1e-9
FLOW_TOL = 1e-9

#: The semiring zero of each reducing ufunc that ``Dag.semiring_pass`` takes.
_SEMIRING_ZERO = {np.logaddexp: -np.inf, np.minimum: np.inf, np.maximum: -np.inf}


# ---------------------------------------------------------------------------
# DAG
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledDag:
    """A DAG laid out for ``Dag.semiring_pass``.

    The pass keeps two values per vertex: slot ``v`` reduces over the
    out-edges of ``v`` (the backward DP, toward the sink) and slot
    ``n_vertices + v`` over its in-edges (the forward DP, from the source).
    With ``depth`` the longest hop count from a vertex without in-edges,
    level ``k`` holds the backward slots ``u`` with ``max depth - depth[u]
    == k`` and the forward slots ``v`` with ``depth[v] == k``.  Every edge
    ends deeper than it starts, so every value a level reads is final
    before it runs.  Within a level the edges are grouped by slot, then
    ordered by edge index; ``edge_order`` lists the edge of each position.
    Each entry of ``levels`` is ``(lo, hi, gather, starts, scatter)``: the
    level's slice of ``edge_order``, the slot at the far end of each of its
    edges, the offset of each slot's group in the slice, and the slots it
    sets.
    Edges out of the sink and into the source lie on no s-t path and are
    left out of the backward and forward halves.
    """
    tails: np.ndarray
    heads: np.ndarray
    edge_order: np.ndarray
    levels: tuple


class Dag:
    """Directed acyclic graph with a designated source and sink.

    Edges are indexed by their position in ``edges``; loss vectors and flows
    over the graph use that indexing.
    """

    def __init__(self, n_vertices, edges, source, sink):
        self.n_vertices = int(n_vertices)
        self.edges = [(int(u), int(v)) for u, v in edges]
        self.n_edges = len(self.edges)
        self.source = int(source)
        self.sink = int(sink)
        self.out_edges = [[] for _ in range(self.n_vertices)]
        for idx, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise PreconditionError(f"edge {idx} endpoints out of range")
            self.out_edges[u].append(idx)
        self.out_edges = [np.array(ix, dtype=int) for ix in self.out_edges]

    # -- structure ---------------------------------------------------------

    @functools.cached_property
    def _kahn_levels(self):
        """``(order, depth)`` by a level-synchronous Kahn sweep; ``order``
        is None if cyclic.  Level ``k + 1`` holds the vertices whose last
        in-edge leaves level ``k``, so it is their depth, the longest hop
        count from a vertex without in-edges; ``order`` lists the levels,
        each sorted."""
        indeg = [0] * self.n_vertices
        heads = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            indeg[v] += 1
            heads[u].append(v)
        depth = [0] * self.n_vertices
        level = [v for v in range(self.n_vertices) if indeg[v] == 0]
        order = []
        while level:
            order += level
            ready = []
            for u in level:
                for v in heads[u]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        depth[v] = depth[u] + 1
                        ready.append(v)
            level = sorted(ready)
        return order if len(order) == self.n_vertices else None, depth

    def topological_order(self):
        """Vertex order with every edge pointing forward; None if cyclic."""
        return self._kahn_levels[0]

    def validate(self):
        """Check acyclicity, reachability from source, co-reachability of sink.

        Returns a list of human-readable defects; empty list means the graph
        is a valid decision-set carrier.
        """
        defects = []
        if self.source == self.sink:
            defects.append("source is the sink")
        if self.topological_order() is None:
            defects.append("cycle detected (no topological order exists)")
            return defects
        to_sink, from_source = self.semiring_pass(np.zeros(self.n_edges),
                                                  np.maximum)
        reach, coreach = np.isfinite(from_source), np.isfinite(to_sink)
        for v in range(self.n_vertices):
            if not reach[v]:
                defects.append(f"vertex {v} unreachable from source")
            if not coreach[v]:
                defects.append(f"vertex {v} cannot reach sink")
        return defects

    def paths_to_sink(self):
        """Exact path counts (Python ints) from every vertex to the sink."""
        order = self.topological_order()
        if order is None:
            raise PreconditionError("graph is cyclic")
        count = [0] * self.n_vertices
        count[self.sink] = 1
        for u in reversed(order):
            if u != self.sink:
                count[u] = sum(count[self.edges[e][1]] for e in self.out_edges[u])
        return count

    def path_count(self):
        """Number of s-t paths."""
        return self.paths_to_sink()[self.source]

    def extreme_path(self, y):
        """A shortest s-t path under edge weights ``y``, as an edge
        indicator (a longest one under ``-y``): the row of
        :meth:`extreme_paths`."""
        return self.extreme_paths(np.asarray(y, dtype=float)[None])[0]

    def extreme_paths(self, ys):
        """A shortest s-t path under each row of the ``(k, n_edges)``
        weights ``ys``, as the rows of a ``(k, n_edges)`` edge indicator.

        Ties are broken toward the lowest edge index at each divergence, so
        each result is the first optimal path in enumeration order.  One
        ``semiring_pass`` gives every row's ``best`` to the sink.  Each
        vertex ``u`` of each row is left by its lowest out-edge ``e = (u,
        v)`` with ``y[e] + best[v] == best[u]``, found for all vertices at
        once, one argmax per out-degree group of ``draw_layout``; then all
        rows walk from the source together, one hop per step.  Each
        ``best[u]`` is one of the sums compared with it, so some out-edge
        matches unless the weight is NaN.
        """
        ys = np.asarray(ys, dtype=float)
        best = self.semiring_pass(ys.T, np.minimum)[0].T
        if np.isnan(best[:, self.source]).any():  # +inf and -inf on one path
            raise PreconditionError("s-t path weight is NaN")
        tails, heads = self.compiled.tails, self.compiled.heads
        tight = ys + best[:, heads] == best[:, tails]
        groups, (ones, one_edge), *_ = self.draw_layout
        # edge n_edges is a stop, taken at the sink and at any dead end
        leave = np.full((len(ys), self.n_vertices), self.n_edges)
        leave[:, ones] = one_edge
        for verts, edges in groups:
            first = tight[:, edges].argmax(axis=2)
            leave[:, verts] = edges[np.arange(len(verts)), first]
        leave[:, self.sink] = self.n_edges
        head = np.append(heads, self.sink)
        x = np.zeros((len(ys), self.n_edges + 1))
        rows, u = np.arange(len(ys)), np.full(len(ys), self.source)
        for _ in range(max(self._kahn_levels[1])):  # the most hops a path has
            e = leave[rows, u]
            x[rows, e] = 1.0
            u = head[e]
        return x[:, :-1]

    @functools.cached_property
    def draw_layout(self):
        """The out-stars grouped by out-degree, for ``sample_path`` and
        ``extreme_paths``: ``(groups, singles, lo, hi, edge_at, head_at,
        dead_ends)``.

        ``groups`` holds ``(vertices, edges)`` per out-degree ``k >= 2``,
        smallest first: the vertices of that degree and their out-edges, a
        ``(len(vertices), k)`` array in edge order.  Their rows fill the
        first slots in turn, one slot per edge, and each vertex of
        out-degree 1 takes one slot after them; ``singles`` is ``(vertices,
        edges)`` of those.  ``edge_at`` and ``head_at`` give each slot's
        edge and its head.  With the rows' CDFs laid out flat, vertex ``u``
        leaves by the slot ``bisect_right(cdf, r, lo[u], hi[u])`` of a
        uniform ``r`` in [0, 1), with ``hi[u] = lo[u] + k - 1``: the last
        entry of a row's CDF is 1, above any ``r``, so it is never read,
        and a vertex of out-degree 1 reads none.  ``dead_ends`` are the
        vertices other than the sink with no out-edge.
        """
        n = self.n_vertices
        degree = [len(ix) for ix in self.out_edges]
        lo, hi, edge_at, groups = [0] * n, [0] * n, [], []
        for k in [*sorted(set(degree) - {0, 1}), 1]:  # out-degree 1 last
            verts = [u for u in range(n) if degree[u] == k]
            start = len(edge_at)
            for u in verts:
                lo[u], hi[u] = len(edge_at), len(edge_at) + k - 1
                edge_at += self.out_edges[u].tolist()
            verts = np.array(verts, dtype=np.intp)
            edges = np.array(edge_at[start:], dtype=np.intp).reshape(-1, k)
            if k > 1:
                groups.append((verts, edges))
        heads = [v for _, v in self.edges]
        dead_ends = frozenset(u for u in range(n)
                              if degree[u] == 0 and u != self.sink)
        return (groups, (verts, edges[:, 0]), lo, hi, edge_at,
                [heads[e] for e in edge_at], dead_ends)

    @functools.cached_property
    def compiled(self):
        """The ``CompiledDag`` of this graph, built on first use.

        The Kahn sweep gives every vertex its depth, and one sort groups
        the edges by level.
        """
        order, depth = self._kahn_levels
        if order is None:
            raise PreconditionError("graph is cyclic")
        n = self.n_vertices
        tails = np.array([u for u, _ in self.edges], dtype=np.intp)
        heads = np.array([v for _, v in self.edges], dtype=np.intp)
        depth = np.array(depth, dtype=np.intp)
        near = np.concatenate([tails, heads + n])
        far = np.concatenate([heads, tails + n])
        level = np.concatenate([depth.max() - depth[tails], depth[heads]])
        keep = np.flatnonzero(np.concatenate([tails != self.sink,
                                              heads != self.source]))
        perm = keep[np.lexsort((near[keep], level[keep]))]
        near = near[perm]
        group_starts = np.flatnonzero(np.diff(near, prepend=-1))
        bounds = np.flatnonzero(np.diff(level[perm], prepend=-1, append=-1))
        first_group = np.searchsorted(group_starts, bounds).tolist()
        levels = []
        for k in range(len(bounds) - 1):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            starts = group_starts[first_group[k]:first_group[k + 1]]
            levels.append((lo, hi, far[perm[lo:hi]], starts - lo, near[starts]))
        return CompiledDag(tails, heads, perm % self.n_edges, tuple(levels))

    def semiring_pass(self, values, reduce):
        """Backward and forward path DPs under per-edge ``values``.

        Returns ``(backward, forward)``: at each vertex ``v``, the
        ``reduce``-sum over ``v``-to-sink paths (backward) and over
        source-to-``v`` paths (forward) of the path's summed values.
        ``reduce`` is ``np.logaddexp``, ``np.minimum`` or ``np.maximum``; a
        vertex with no such path gets its zero.  Both run in one
        level-synchronous sweep: per level one gather, add, ``reduceat``
        and scatter.  ``values`` of shape ``(n_edges, k)`` run ``k`` passes
        at once, one per column, each bit for bit the pass of its column.
        """
        compiled, n = self.compiled, self.n_vertices
        w = np.asarray(values, dtype=float)[compiled.edge_order]
        dist = np.full((2 * n,) + w.shape[1:], _SEMIRING_ZERO[reduce])
        dist[[self.sink, n + self.source]] = 0.0
        reduceat = reduce.reduceat
        for lo, hi, gather, starts, scatter in compiled.levels:
            dist[scatter] = reduceat(w[lo:hi] + dist[gather], starts)
        return dist[:n], dist[n:]

    def enumerate_paths(self):
        """All s-t paths as edge indicators, in DFS order (lowest edge first)."""
        if self.path_count() > ENUMERATION_CAP:
            raise CapExceeded(f"path count exceeds cap {ENUMERATION_CAP}")
        paths = []
        stack = [(self.source, [])]  # (vertex reached, edges taken so far)
        while stack:
            u, taken = stack.pop()
            if u == self.sink:
                x = np.zeros(self.n_edges)
                x[taken] = 1.0
                paths.append(x)
                continue
            # pushed last-edge first, so the lowest edge is popped first
            stack += [(self.edges[e][1], taken + [e])
                      for e in self.out_edges[u][::-1].tolist()]
        return paths

    def vertex_loads(self, x):
        """Outflow sums ``x[v] = sum of x over edges leaving v`` (sink gets 1)."""
        loads = np.bincount(self.compiled.tails, np.asarray(x, dtype=float),
                            self.n_vertices)
        loads[self.sink] = 1.0
        return loads

    @functools.cached_property
    def incidence(self):
        """Signed incidence matrix ``B`` (+1 at an edge's tail, -1 at its
        head); a unit s-t flow has ``B x = b = e_source - e_sink``."""
        inc = np.zeros((self.n_vertices, self.n_edges))
        inc[self.compiled.tails, np.arange(self.n_edges)] = 1.0
        inc[self.compiled.heads, np.arange(self.n_edges)] = -1.0
        return inc

    @functools.cached_property
    def flow_system(self):
        """``(A, b, A_ls)``: the unit-flow polytope as ``A x = b`` with A of
        full row rank, and ``A_ls = pinv(A^T)``, which maps a vector ``g`` to
        the least-squares solution ``nu`` of ``A^T nu = g``.

        Rows of A, taken from ``incidence``: source outflow equals one, then
        conservation (inflow minus outflow) at every other vertex but the
        sink, whose row is implied and omitted.  The arrays are read-only.
        """
        inner = [v for v in range(self.n_vertices)
                 if v not in (self.source, self.sink)]
        # 0.0 - B, not -B: A holds +0.0, bit for bit the per-vertex rows
        a_mat = np.vstack([self.incidence[self.source], 0.0 - self.incidence[inner]])
        system = (a_mat, np.r_[1.0, np.zeros(len(inner))], np.linalg.pinv(a_mat.T))
        for arr in system:
            arr.flags.writeable = False
        return system

    def flow_excess(self, x):
        """``B x - b``, the conservation error at every vertex."""
        excess = self.incidence @ np.asarray(x, dtype=float)
        excess[self.source] -= 1.0
        excess[self.sink] += 1.0
        return excess


def load_dag(path):
    """Read a DAG from the text format::

        dag <n_vertices> <n_edges> <source> <sink>
        <tail> <head>        (one line per edge, edge index = line order)
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 5 or tokens[0] != "dag":
        raise PreconditionError(f"{path}: expected 'dag <n> <m> <s> <t>'")
    try:
        n, m, s, t, *nums = (int(x) for x in tokens[1:])
    except ValueError as err:
        raise PreconditionError(f"{path}: {err}") from None
    if len(nums) != 2 * m:
        raise PreconditionError(f"{path}: expected {m} edges, found {len(nums) // 2}")
    edges = list(zip(nums[0::2], nums[1::2]))
    return Dag(n, edges, s, t)


def flow_check(dag, x):
    """Max violation of the unit s-t flow constraints at ``x``.

    Returns ``(ok, residual)`` where the residual is the largest of the
    conservation errors ``|B x - b|`` at every vertex and the box violation
    on any edge.  ``ok`` iff residual <= 1e-9.
    """
    x = np.asarray(x, dtype=float)
    res = flow_residual(x, dag.flow_excess(x))
    return res <= FLOW_TOL, res


def flow_residual(x, excess):
    """The larger of ``max |excess|`` and the box violation of ``x``: the
    residual of :func:`flow_check` from ``excess = B x - b``."""
    return max(float(np.max(np.abs(excess))),
               float(np.max(np.maximum(-x, x - 1.0), initial=0.0)))


# ---------------------------------------------------------------------------
# Decision sets
# ---------------------------------------------------------------------------

@dataclass
class LossCheck:
    """Outcome of validating a loss vector against the unit-loss bound."""
    ok: bool
    value: float
    witness: np.ndarray | None

    def __bool__(self):
        return self.ok


class DecisionSet:
    """Common interface of the four decision-set variants.

    ``path_embedding`` is ``None`` unless the vertices are the s-t paths of
    a DAG; then it is ``(dag, coord)``, and a path's vertex has a one at
    ``coord[e]`` for each edge ``e`` on the path that carries a coordinate
    (``coord[e] == -1`` for none).  Hedge over such a set is weight pushing
    over the DAG.
    """

    dimension: int
    path_embedding = None

    def count(self):
        raise NotImplementedError

    def log_count(self):
        """Natural log of the number of vertices (closed forms override)."""
        return math.log(self.count())

    def enumerate_vertices(self):
        """All vertices, no duplicates, in the canonical order; raises
        :class:`CapExceeded` beyond ``ENUMERATION_CAP`` vertices.

        The canonical order is descending-lexicographic on the binary
        tuples, which coincides with index-combination order for m-sets,
        block-product order for multitask sets, and lowest-edge-first DFS
        order for path sets.
        """
        if self.count() > ENUMERATION_CAP:
            raise CapExceeded(f"{self.count()} vertices exceed cap {ENUMERATION_CAP}")
        return self._vertices()

    def dual_norm(self, z):
        """``max_x |<x, z>|`` over the vertices, via the variant's closed form."""
        return self._dual_norms(np.asarray(z, dtype=float)[None])[0]

    def _dual_norms(self, zs):
        lo, hi = self._extreme_products(zs)
        return np.maximum(abs(lo), abs(hi))

    def dual_witness(self, z):
        """A vertex achieving the dual norm: :meth:`best_vertex` of ``-z`` (a
        maximizer) if ``|max| >= |min|``, else of ``z``, with its ties."""
        z = np.asarray(z, dtype=float)
        (lo,), (hi,) = self._extreme_products(z[None])
        return self.best_vertex(-z if abs(hi) >= abs(lo) else z)[0]

    def _extreme_products(self, zs):
        """(min, max) of ``<x, z>`` over vertices, for each row ``z`` of the
        ``(k, d)`` array ``zs``: two arrays of ``k`` entries."""
        raise NotImplementedError

    def validate_loss(self, y):
        """Check ``max_x |<x, y>| <= 1 + FEAS_TOL``; report a witness on
        failure.  A vector of the wrong shape or with a non-finite entry
        fails with value inf and no witness."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dimension,) or not np.all(np.isfinite(y)):
            return LossCheck(False, float("inf"), None)
        value = self.dual_norm(y)
        if value <= 1.0 + FEAS_TOL:
            return LossCheck(True, float(value), None)
        return LossCheck(False, float(value), self.dual_witness(y))

    def validate_losses(self, ys):
        """:meth:`validate_loss` of every row of the ``(k, d)`` array ``ys``
        in one pass, without witnesses: ``(ok, value)``, one entry per row."""
        ys = np.asarray(ys, dtype=float)
        finite = np.isfinite(ys).all(axis=1)
        if not finite.all():
            ys = np.where(finite[:, None], ys, 0.0)
        value = np.where(finite, self._dual_norms(ys), np.inf)
        return value <= 1.0 + FEAS_TOL, value

    def best_vertex(self, cum_loss):
        """Exact minimizer of ``<x, cum_loss>`` with canonical tie-breaking.

        Returns ``(vertex, value)``.
        """
        raise NotImplementedError

    def best_values(self, cum_losses):
        """``best_vertex(row)[1]`` of every row of the ``(k, d)`` array
        ``cum_losses``, bit for bit; closed forms batch it."""
        return np.array([self.best_vertex(row)[1] for row in cum_losses])


class ExplicitSet(DecisionSet):
    """Decision set given by an explicit list of distinct binary vectors."""

    def __init__(self, vectors):
        mat = np.asarray(vectors, dtype=float)
        if mat.ndim != 2 or mat.shape[0] == 0:
            raise PreconditionError("need a non-empty 2-D array of vertices")
        if not np.all((mat == 0.0) | (mat == 1.0)):
            raise PreconditionError("vertices must be binary")
        order = np.lexsort(mat[:, ::-1].T)[::-1]  # descending lexicographic
        mat = mat[order]
        if any(np.array_equal(mat[i], mat[i + 1]) for i in range(len(mat) - 1)):
            raise PreconditionError("vertices must be distinct")
        self.vertices = mat
        self.dimension = mat.shape[1]

    def count(self):
        return self.vertices.shape[0]

    def _vertices(self):
        return [v.copy() for v in self.vertices]

    def _extreme_products(self, zs):
        # a matrix-vector product per row: a matrix product rounds otherwise
        prods = np.array([self.vertices @ z for z in zs]).reshape(
            len(zs), self.count())
        return prods.min(axis=1), prods.max(axis=1)

    def best_vertex(self, cum_loss):
        prods = self.vertices @ np.asarray(cum_loss, dtype=float)
        idx = int(np.argmin(prods))
        return self.vertices[idx].copy(), float(prods[idx])


class MSet(DecisionSet):
    """All binary d-vectors with exactly m ones, for 1 <= m <= d/2."""

    def __init__(self, d, m):
        d, m = int(d), int(m)
        if not (1 <= m <= d // 2):
            raise PreconditionError(f"need 1 <= m <= d/2, got d={d}, m={m}")
        self.dimension = d
        self.m = m

    def count(self):
        return math.comb(self.dimension, self.m)

    def log_count(self):
        d, m = self.dimension, self.m
        return math.lgamma(d + 1) - math.lgamma(m + 1) - math.lgamma(d - m + 1)

    def _vertices(self):
        out = []
        for combo in itertools.combinations(range(self.dimension), self.m):
            x = np.zeros(self.dimension)
            x[list(combo)] = 1.0
            out.append(x)
        return out

    def _extreme_products(self, zs):
        zs = np.sort(zs, axis=1)
        return zs[:, :self.m].sum(axis=1), zs[:, -self.m:].sum(axis=1)

    def best_vertex(self, cum_loss):
        cum_loss = np.asarray(cum_loss, dtype=float)
        order = np.argsort(cum_loss, kind="stable")  # stable -> lowest indices on ties
        chosen = order[: self.m]
        x = np.zeros(self.dimension)
        x[chosen] = 1.0
        return x, float(cum_loss[chosen].sum())

    def best_values(self, cum_losses):
        return self._extreme_products(cum_losses)[0]

    @functools.cached_property
    def path_embedding(self):
        """The select/skip DAG of :func:`mset_selection_dag`."""
        return mset_selection_dag(self.dimension, self.m)


class MultitaskSet(DecisionSet):
    """One expert chosen per block; losses add across blocks."""

    def __init__(self, block_sizes):
        sizes = [int(b) for b in block_sizes]
        if not sizes or any(b < 2 for b in sizes):
            raise PreconditionError("each block needs at least 2 experts")
        self.block_sizes = sizes
        self.dimension = sum(sizes)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        self.block_slices = [slice(int(starts[i]), int(starts[i + 1]))
                             for i in range(len(sizes))]

    def count(self):
        return math.prod(self.block_sizes)

    def log_count(self):
        return sum(math.log(b) for b in self.block_sizes)

    def _vertices(self):
        out = []
        for combo in itertools.product(*(range(b) for b in self.block_sizes)):
            x = np.zeros(self.dimension)
            for sl, j in zip(self.block_slices, combo):
                x[sl.start + j] = 1.0
            out.append(x)
        return out

    def _extreme_products(self, zs):
        starts = [sl.start for sl in self.block_slices]
        # block extremes summed left to right from 0, as best_vertex sums
        return (sum(np.minimum.reduceat(zs, starts, axis=1).T),
                sum(np.maximum.reduceat(zs, starts, axis=1).T))

    def best_vertex(self, cum_loss):
        cum_loss = np.asarray(cum_loss, dtype=float)
        x = np.zeros(self.dimension)
        total = 0.0
        for sl in self.block_slices:
            j = int(np.argmin(cum_loss[sl]))  # argmin takes first on ties
            x[sl.start + j] = 1.0
            total += float(cum_loss[sl.start + j])
        return x, total

    def best_values(self, cum_losses):
        return self._extreme_products(cum_losses)[0]

    @functools.cached_property
    def path_embedding(self):
        """A chain with one bundle of parallel edges per block; edge ``e``
        carries coordinate ``e``."""
        edges = [(b, b + 1) for b, size in enumerate(self.block_sizes)
                 for _ in range(size)]
        n = len(self.block_sizes)
        return Dag(n + 1, edges, 0, n), np.arange(self.dimension)


class DagPathSet(DecisionSet):
    """Edge indicators of all s-t paths in a validated DAG."""

    def __init__(self, dag):
        defects = dag.validate()
        if defects:
            raise PreconditionError("invalid DAG: " + "; ".join(defects))
        self.dag = dag
        self.dimension = dag.n_edges
        self.path_embedding = (dag, np.arange(dag.n_edges))

    def count(self):
        return self.dag.path_count()

    def enumerate_vertices(self):
        return self.dag.enumerate_paths()

    def _extreme_products(self, zs):
        # one min-pass over the rows and their negations: max <x, z> is
        # -min <x, -z>, exactly but for the sign of a zero
        _, lo = self.dag.semiring_pass(np.vstack([zs, -zs]).T, np.minimum)
        lo = lo[self.dag.sink]
        return lo[:len(zs)], -lo[len(zs):]

    def best_vertex(self, cum_loss):
        x = self.dag.extreme_path(cum_loss)
        return x, float(x @ np.asarray(cum_loss, dtype=float))

    def best_values(self, cum_losses):
        # one batched walk; each value is the 1-D dot that best_vertex takes
        cum_losses = np.asarray(cum_losses, dtype=float)
        paths = self.dag.extreme_paths(cum_losses)
        return np.array([float(x @ c) for x, c in zip(paths, cum_losses)])


class SelectionDag(Dag):
    """The select/skip DAG of :func:`mset_selection_dag`, whose pass runs
    along the cardinality axis.

    Its vertices are the cells ``(j, k)`` of an ``(m + 1, d - m + 1)`` grid:
    ``j`` coordinates selected after ``i = j + k`` of them were seen.  When
    every skip edge's value is 0 (of either sign), the forward DP of row
    ``j`` is one running ``reduce`` over ``k`` of row ``j - 1`` plus the
    select values into it; the backward DP is the same recurrence on the
    grid turned end for end.  So the pass is ``m`` steps, not ``d`` levels.
    """

    def __init__(self, d, m):
        states = [(i, j) for i in range(d + 1)
                  for j in range(max(0, m - (d - i)), min(i, m) + 1)]
        vid = {state: k for k, state in enumerate(states)}
        edges, coord = [], []
        for i, j in states:
            for nxt, c in (((i + 1, j), -1), ((i + 1, j + 1), i)):
                if nxt in vid:
                    edges.append((vid[(i, j)], vid[nxt]))
                    coord.append(c)
        super().__init__(len(vid), edges, vid[(0, 0)], vid[(d, m)])
        self.d, self.m = d, m
        self.coordinate = np.array(coord, dtype=int)

    @functools.cached_property
    def _grid(self):
        """``(skips, selects, cells)``, built on the first pass.  ``skips``
        lists the skip edges.  The pass fills an ``(m + 1, 2, d - m + 1)``
        table: row ``j`` holds the forward DP of the grid's row ``j`` and
        the backward DP of its row ``m - j``, read from the end.
        ``selects[j]`` gives the select edges whose values enter the two
        halves of row ``j + 1``, and ``cells`` the flat table entry of every
        vertex's backward, then forward, value."""
        d, m = self.d, self.m
        i = np.arange(d + 1)
        first = np.maximum(0, m - d + i)  # the lowest j at level i
        start = np.concatenate([[0], np.cumsum(np.minimum(i, m) - first + 1)])
        j, k = np.ogrid[:m + 1, :d - m + 1]
        vertex = start[j + k] + j - first[j + k]  # the vertex of cell (j, k)
        out = np.array([ix[-1] for ix in self.out_edges[:self.sink]])
        select = out[vertex[:-1]]  # a select edge is the last out-edge
        entry = np.arange(vertex.size).reshape(vertex.shape) + j * vertex.shape[1]
        cells = np.empty((2, self.n_vertices), dtype=np.intp)
        cells[0, vertex[::-1, ::-1]] = entry + vertex.shape[1]  # backward
        cells[1, vertex] = entry                                 # forward
        return (np.flatnonzero(self.coordinate < 0),
                np.stack([select, select[::-1, ::-1]], axis=1),
                cells.reshape(-1))

    def semiring_pass(self, values, reduce):
        """:meth:`Dag.semiring_pass`, bit for bit, in ``m`` steps of one
        add and one ``reduce.accumulate`` over the stacked forward and
        backward rows.  The running reduce takes each pair in the other
        order than the level pass does; ``logaddexp``, ``minimum`` and
        ``maximum`` are commutative bit for bit, and no table entry is a
        zero of negative sign, so adding a skip value of 0 changes none.
        Other skip values take the level pass."""
        skips, selects, cells = self._grid
        values = np.asarray(values, dtype=float)
        if np.count_nonzero(values[skips]):
            return super().semiring_pass(values, reduce)
        w = values[selects]
        table = np.zeros((self.m + 1,) + w.shape[1:])
        for j in range(self.m):
            reduce.accumulate(table[j] + w[j], axis=1, out=table[j + 1])
        dist = table.reshape((-1,) + w.shape[3:])[cells]
        return dist[:self.n_vertices], dist[self.n_vertices:]


def mset_selection_dag(d, m):
    """Select/skip DAG whose s-t paths are in bijection with m-subsets of d.

    Level i vertex state is the count of coordinates selected so far; the
    edge from level i taken upward carries coordinate i.  Returns
    ``(dag, coordinate_of_edge)`` with -1 marking skip edges.
    """
    dag = SelectionDag(d, m)
    return dag, dag.coordinate


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def primal_norm_bruteforce(decision_set, z):
    """The norm dual to ``dual_norm``: ``max { <y, z> : max_x |<x,y>| <= 1 }``.

    Solved as an LP over the enumerated vertex constraints.  Test-time
    oracle only; the constraint matrix has two rows per vertex.
    """
    from scipy.optimize import linprog  # about 0.3 s to import; only here

    z = np.asarray(z, dtype=float)
    vertices = decision_set.enumerate_vertices()
    mat = np.asarray(vertices)
    a_ub = np.vstack([mat, -mat])
    b_ub = np.ones(2 * mat.shape[0])
    res = linprog(-z, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * decision_set.dimension,
                  method="highs")
    if res.status == 3:
        raise SolverFailure("primal norm LP is unbounded "
                            "(z has a component outside span of the vertices)")
    if res.status != 0:
        raise SolverFailure(f"primal norm LP failed: {res.message}")
    violation = float(np.max(a_ub @ res.x - b_ub, initial=0.0))
    if violation > 1e-8:
        raise SolverFailure("LP certificate residual too large",
                            residual=violation)
    return float(-res.fun)
