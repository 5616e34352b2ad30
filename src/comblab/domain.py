"""Decision sets, the DAG type, norms, and feasibility checks.

A decision set is a finite family of binary vectors in {0,1}^d.  Four
variants are supported:

* :class:`ExplicitSet` -- an explicit list of vertices,
* :class:`MSet` -- all vectors with exactly m ones,
* :class:`MultitaskSet` -- one choice per block, concatenated,
* :class:`DagPathSet` -- edge indicators of s-t paths in a DAG.

A multitask set is the path set of a chain of parallel-edge bundles, so it
takes its count, enumeration, dual-norm extremes and best values from the
same DAG code as a path set (:class:`PathSetMixin`): one forward min pass,
which sums each path in path order and calls no BLAS kernel.  Every other
set's best values are the minima of its extremes.

Loss vectors are constrained so that every action's per-round loss lies in
[-1, 1]; equivalently the dual norm ``max_x |<x, y>|`` is at most one.  All
operations here are pure functions of their inputs.
"""

import functools
import itertools
import math
from collections import namedtuple
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

#: ``Dag.draw_layout``: the out-stars of a graph as the path draws read them.
DrawLayout = namedtuple("DrawLayout", "groups singles start heads branching")


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
        for role, v in (("source", self.source), ("sink", self.sink)):
            if not 0 <= v < self.n_vertices:
                raise PreconditionError(
                    f"{role} {v} out of range for {self.n_vertices} vertices")
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
        indicator (a longest one under ``-y``).

        Ties are broken toward the lowest edge index at each divergence, so
        the result is the first optimal path in enumeration order.  The
        walk leaves each vertex ``u`` by its lowest out-edge ``e = (u, v)``
        with ``y[e] + best[v] == best[u]``.  Each ``best[u]`` is one of the
        sums compared with it, so some out-edge matches unless the weight
        is NaN or ``u`` is a dead end, which the walk meets only where
        every path from the source weighs +inf.
        """
        y = np.asarray(y, dtype=float)
        best, _ = self.semiring_pass(y, np.minimum)
        if np.isnan(best[self.source]):  # +inf and -inf on one path
            raise PreconditionError("s-t path weight is NaN")
        x = np.zeros(self.n_edges)
        u = self.source
        while u != self.sink:
            for e in self.out_edges[u]:
                v = self.edges[e][1]
                if y[e] + best[v] == best[u]:
                    x[e] = 1.0
                    u = v
                    break
            else:
                raise PreconditionError(f"vertex {u} has no path to the sink")
        return x

    @functools.cached_property
    def draw_layout(self):
        """The out-stars grouped by out-degree, for the path draws of
        ``sampling``, as a :class:`DrawLayout`.

        ``groups`` holds ``(vertices, edges)`` per out-degree ``k >= 2``,
        smallest first: the vertices of that degree, ascending, and their
        out-edges, a ``(len(vertices), k)`` array in edge order.  A draw
        takes one uniform for each of these ``branching`` vertices, in
        that order.  ``singles`` is ``(vertices, edges)`` of the vertices
        of out-degree 1 and their edges.  ``start`` gives each vertex of
        out-degree 1 its edge and every other vertex -1, and ``heads``
        lists the head of every edge.
        """
        by_degree = {}
        for u, out in enumerate(self.out_edges):
            by_degree.setdefault(len(out), []).append(u)

        def stars(k):
            verts = by_degree.get(k, [])
            edges = [self.out_edges[u] for u in verts]
            return (np.array(verts, dtype=np.intp),
                    np.array(edges, dtype=np.intp).reshape(len(verts), k))

        groups = [stars(k) for k in sorted(by_degree) if k >= 2]
        verts, edges = stars(1)
        start = np.full(self.n_vertices, -1, dtype=np.intp)
        start[verts] = edges[:, 0]
        return DrawLayout(groups, (verts, edges[:, 0]), start,
                          [v for _, v in self.edges],
                          sum(len(verts) for verts, _ in groups))

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

    @functools.cached_property
    def _forward_levels(self):
        """``(edge_order, levels)``: the forward slots of ``compiled``,
        built on first use.  A level's slots are sorted, so its forward
        ones, ``n_vertices`` on, are the last groups of its slice; they
        keep their order, and their slots are shifted to index the
        ``n_vertices`` forward values alone."""
        compiled, n = self.compiled, self.n_vertices
        keep, levels, size = [], [], 0
        for lo, hi, gather, starts, scatter in compiled.levels:
            first = int(np.searchsorted(scatter, n))
            if first == len(scatter):
                continue
            skip = int(starts[first])
            keep.append(np.arange(lo + skip, hi))
            levels.append((size, size + hi - lo - skip, gather[skip:] - n,
                           starts[first:] - skip, scatter[first:] - n))
            size += hi - lo - skip
        positions = np.concatenate(keep) if keep else np.arange(0)
        return compiled.edge_order[positions], tuple(levels)

    def forward_pass(self, values, reduce):
        """``semiring_pass(values, reduce)[1]``, bit for bit, from the
        forward levels alone: at each vertex, the ``reduce``-sum over
        source-to-vertex paths of the path's summed values."""
        order, levels = self._forward_levels
        w = np.asarray(values, dtype=float)[order]
        dist = np.full((self.n_vertices,) + w.shape[1:], _SEMIRING_ZERO[reduce])
        dist[self.source] = 0.0
        reduceat = reduce.reduceat
        for lo, hi, gather, starts, scatter in levels:
            dist[scatter] = reduceat(w[lo:hi] + dist[gather], starts)
        return dist

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

    @functools.cached_property
    def kkt_template(self):
        """The KKT matrix ``[[H, A^T], [A, 0]]`` of the flow polytope with
        the constraint blocks of ``flow_system`` filled in and zeros in the
        ``n_edges`` square Hessian block; read-only, so each solve copies
        it and writes its own Hessian."""
        a_mat = self.flow_system[0]
        size = self.n_edges + a_mat.shape[0]
        kkt = np.zeros((size, size))
        kkt[:self.n_edges, self.n_edges:] = a_mat.T
        kkt[self.n_edges:, :self.n_edges] = a_mat
        kkt.flags.writeable = False
        return kkt

    @functools.cached_property
    def free_incidence(self):
        """The rows of ``incidence`` at every vertex but the sink, whose
        potential the entropy projection pins; read-only."""
        inc = np.delete(self.incidence, self.sink, axis=0)
        inc.flags.writeable = False
        return inc

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
    return max(float(np.abs(excess).max()),
               0.0, -float(x.min()), float(x.max()) - 1.0)


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
        """Check ``max_x |<x, y>| <= 1 + FEAS_TOL`` by the one-row
        :meth:`validate_losses`; report a witness on failure.  A vector of
        the wrong shape or with a non-finite entry fails with value inf and
        no witness, as does one whose value overflows."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dimension,):
            return LossCheck(False, float("inf"), None)
        (ok,), (value,) = self.validate_losses(y[None])
        if ok or value == np.inf:  # inf: a non-finite entry, or an overflow
            return LossCheck(bool(ok), float(value), None)
        return LossCheck(False, float(value), self.dual_witness(y))

    def validate_losses(self, ys):
        """:meth:`validate_loss` of every row of the ``(k, d)`` array ``ys``
        in one pass, without witnesses: ``(ok, value)``, one entry per row.
        A row whose action-losses leave the float range gets value inf: a
        sum that overflows reads inf, or NaN where sums of both signs do."""
        ys = np.asarray(ys, dtype=float)
        finite = np.isfinite(ys).all(axis=1)
        if not finite.all():
            ys = np.where(finite[:, None], ys, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = self._dual_norms(ys)
        value = np.where(finite & ~np.isnan(norms), norms, np.inf)
        return value <= 1.0 + FEAS_TOL, value

    def best_vertex(self, cum_loss):
        """Exact minimizer of ``<x, cum_loss>`` with canonical tie-breaking.

        Returns ``(vertex, value)``.
        """
        raise NotImplementedError

    def best_values(self, cum_losses):
        """``best_vertex(row)[1]`` of every row of the ``(k, d)`` array
        ``cum_losses``, bit for bit: the minima of ``_extreme_products``,
        which sum as ``best_vertex`` does.  Path sets take the min pass that
        their extremes come from (:class:`PathSetMixin`)."""
        return self._extreme_products(cum_losses)[0]


class ExplicitSet(DecisionSet):
    """Decision set given by an explicit list of distinct binary vectors."""

    def __init__(self, vectors):
        shape_error = "need a non-empty 2-D array of vertices"
        try:
            mat = np.asarray(vectors, dtype=float)
        except ValueError:  # ragged: only then are the lengths scanned
            lengths = sorted({np.size(v) for v in vectors})
            raise PreconditionError(f"vertices of unequal lengths {lengths}"
                                    if len(lengths) > 1 else shape_error) from None
        if mat.ndim != 2 or mat.shape[0] == 0:
            raise PreconditionError(shape_error)
        if not np.all((mat == 0.0) | (mat == 1.0)):
            raise PreconditionError("vertices must be binary")
        order = np.lexsort(mat[:, ::-1].T)[::-1]  # descending lexicographic
        mat = mat[order]
        if (mat[1:] == mat[:-1]).all(axis=1).any():  # sorted: neighbours
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

    @functools.cached_property
    def path_embedding(self):
        """The select/skip DAG of :func:`mset_selection_dag`."""
        return mset_selection_dag(self.dimension, self.m)


class PathSetMixin:
    """Count, enumeration, extremes and hindsight of a set whose vertices
    are the s-t paths of ``self.dag``, edge ``e`` carrying coordinate
    ``e``.  Every value is the minimum over paths of the path-order sum,
    from one forward min pass.  Not a :class:`DecisionSet`: perfbench's
    tracer wraps the ``best_vertex`` that each of those defines, so each
    takes this one by name."""

    def count(self):
        return self.dag.path_count()

    def enumerate_vertices(self):
        return self.dag.enumerate_paths()

    def best_values(self, cum_losses):
        lo = self.dag.forward_pass(np.asarray(cum_losses, dtype=float).T,
                                   np.minimum)
        return lo[self.dag.sink]

    def best_vertex(self, cum_loss):
        cum_loss = np.asarray(cum_loss, dtype=float)
        return (self.dag.extreme_path(cum_loss),
                float(self.best_values(cum_loss[None])[0]))

    def _extreme_products(self, zs):
        # the rows and their negations: max <x, z> is -min <x, -z>, exactly
        # but for the sign of a zero
        lo = self.best_values(np.vstack([zs, -zs]))
        return lo[:len(zs)], -lo[len(zs):]


class MultitaskSet(PathSetMixin, DecisionSet):
    """One expert chosen per block; losses add across blocks.  The vertices
    are the s-t paths of a chain with one bundle of parallel edges per
    block, listed in block-product order."""

    def __init__(self, block_sizes):
        sizes = [int(b) for b in block_sizes]
        if not sizes or any(b < 2 for b in sizes):
            raise PreconditionError("each block needs at least 2 experts")
        self.block_sizes = sizes
        self.dimension = sum(sizes)
        edges = [(b, b + 1) for b, size in enumerate(sizes)
                 for _ in range(size)]
        self.dag = Dag(len(sizes) + 1, edges, 0, len(sizes))
        self.path_embedding = (self.dag, np.arange(self.dimension))

    def log_count(self):  # a sum of logs: it fixes eta bit for bit
        return sum(math.log(b) for b in self.block_sizes)

    best_vertex = PathSetMixin.best_vertex


class DagPathSet(PathSetMixin, DecisionSet):
    """Edge indicators of all s-t paths in a validated DAG."""

    def __init__(self, dag):
        defects = dag.validate()
        if defects:
            raise PreconditionError("invalid DAG: " + "; ".join(defects))
        self.dag = dag
        self.dimension = dag.n_edges
        self.path_embedding = (dag, np.arange(dag.n_edges))

    best_vertex = PathSetMixin.best_vertex


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
