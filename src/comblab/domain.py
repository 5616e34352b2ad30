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
from scipy.optimize import linprog

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
    Level ``k`` holds the backward slots of height ``k`` (longest hop count
    to a vertex without out-edges) and the forward slots of depth ``k``
    (longest hop count from a vertex without in-edges), so every value a
    level reads is final before it runs.  Within a level the edges are
    grouped by slot, then ordered by edge index; ``edge_order`` lists the
    edge of each position.  Each entry of ``levels`` is
    ``(lo, hi, gather, starts, scatter)``: the level's slice of
    ``edge_order``, the slot at the far end of each of its edges, the
    offset of each slot's group in the slice, and the slots it sets.
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
        self.in_edges = [[] for _ in range(self.n_vertices)]
        for idx, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise PreconditionError(f"edge {idx} endpoints out of range")
            self.out_edges[u].append(idx)
            self.in_edges[v].append(idx)
        self.out_edges = [np.array(ix, dtype=int) for ix in self.out_edges]
        self.in_edges = [np.array(ix, dtype=int) for ix in self.in_edges]
        self._topo = None

    # -- structure ---------------------------------------------------------

    def topological_order(self):
        """Vertex order with every edge pointing forward; None if cyclic."""
        if self._topo is not None:
            return self._topo
        indeg = np.zeros(self.n_vertices, dtype=int)
        for _, v in self.edges:
            indeg[v] += 1
        ready = sorted(v for v in range(self.n_vertices) if indeg[v] == 0)
        order = []
        while ready:
            u = ready.pop(0)
            order.append(u)
            for e in self.out_edges[u]:
                v = self.edges[e][1]
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
            ready.sort()
        if len(order) != self.n_vertices:
            return None
        self._topo = order
        return order

    def validate(self):
        """Check acyclicity, reachability from source, co-reachability of sink.

        Returns a list of human-readable defects; empty list means the graph
        is a valid decision-set carrier.
        """
        defects = []
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

    def path_count(self):
        """Number of s-t paths, by DP over the topological order."""
        order = self.topological_order()
        if order is None:
            raise PreconditionError("graph is cyclic")
        count = [0] * self.n_vertices
        count[self.sink] = 1
        for u in reversed(order):
            if u != self.sink:
                count[u] = sum(count[self.edges[e][1]] for e in self.out_edges[u])
        return count[self.source]

    def extreme_path_weights(self, y):
        """(shortest, longest) s-t path weight under edge weights ``y``."""
        _, lo = self.semiring_pass(y, np.minimum)
        _, hi = self.semiring_pass(y, np.maximum)
        return lo[self.sink], hi[self.sink]

    def shortest_dists_from_source(self, y):
        """Shortest-path weight from the source to every vertex."""
        return self.semiring_pass(y, np.minimum)[1]

    def extreme_path(self, y, mode="min"):
        """An extreme-weight s-t path as an edge indicator.

        Ties are broken toward the lowest edge index at each divergence, so
        the result is the first optimal path in enumeration order.
        """
        y = np.asarray(y, dtype=float)
        sign = 1.0 if mode == "min" else -1.0
        best, _ = self.semiring_pass(sign * y, np.minimum)
        x = np.zeros(self.n_edges)
        u = self.source
        while u != self.sink:
            for e in self.out_edges[u]:
                v = self.edges[e][1]
                if sign * y[e] + best[v] == best[u]:
                    x[e] = 1.0
                    u = v
                    break
            else:  # numerical guard: take the closest edge
                e = min(self.out_edges[u],
                        key=lambda e: abs(sign * y[e] + best[self.edges[e][1]] - best[u]))
                x[e] = 1.0
                u = self.edges[e][1]
        return x

    @functools.cached_property
    def compiled(self):
        """The ``CompiledDag`` of this graph, built on first use.

        One sweep over the topological order gives every vertex its depth
        and height, and one sort groups the edges by level.
        """
        order = self.topological_order()
        if order is None:
            raise PreconditionError("graph is cyclic")
        n = self.n_vertices
        tails = np.array([u for u, _ in self.edges], dtype=np.intp)
        heads = np.array([v for _, v in self.edges], dtype=np.intp)
        position = np.empty(n, dtype=np.intp)
        position[order] = np.arange(n)
        by_tail = np.argsort(position[tails], kind="stable").tolist()
        depth = [0] * n
        height = [0] * n
        for e in by_tail:
            u, v = self.edges[e]
            depth[v] = max(depth[v], depth[u] + 1)
        for e in reversed(by_tail):
            u, v = self.edges[e]
            height[u] = max(height[u], height[v] + 1)
        near = np.concatenate([tails, heads + n])
        far = np.concatenate([heads, tails + n])
        level = np.concatenate([np.array(height)[tails], np.array(depth)[heads]])
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
        and scatter.
        """
        compiled, n = self.compiled, self.n_vertices
        dist = np.full(2 * n, _SEMIRING_ZERO[reduce])
        dist[[self.sink, n + self.source]] = 0.0
        w = np.asarray(values, dtype=float)[compiled.edge_order]
        reduceat = reduce.reduceat
        for lo, hi, gather, starts, scatter in compiled.levels:
            dist[scatter] = reduceat(w[lo:hi] + dist[gather], starts)
        return dist[:n], dist[n:]

    def enumerate_paths(self, cap=ENUMERATION_CAP):
        """All s-t paths as edge indicators, in DFS order (lowest edge first)."""
        if self.path_count() > cap:
            raise CapExceeded(f"path count exceeds cap {cap}")
        paths = []
        stack = []

        def dfs(u):
            if u == self.sink:
                x = np.zeros(self.n_edges)
                x[stack] = 1.0
                paths.append(x)
                return
            for e in self.out_edges[u]:
                stack.append(e)
                dfs(self.edges[e][1])
                stack.pop()

        dfs(self.source)
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
    if not tokens or tokens[0] != "dag":
        raise PreconditionError(f"{path}: expected header starting with 'dag'")
    n, m, s, t = (int(x) for x in tokens[1:5])
    nums = [int(x) for x in tokens[5:]]
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
    res = max(float(np.max(np.abs(dag.flow_excess(x)))),
              float(np.max(np.maximum(-x, x - 1.0), initial=0.0)))
    return res <= FLOW_TOL, res


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
        """Natural log of the number of vertices, in closed form."""
        raise NotImplementedError

    def enumerate_vertices(self, cap=ENUMERATION_CAP):
        """All vertices, no duplicates, in the canonical order.

        The canonical order is descending-lexicographic on the binary
        tuples, which coincides with index-combination order for m-sets,
        block-product order for multitask sets, and lowest-edge-first DFS
        order for path sets.
        """
        raise NotImplementedError

    def dual_norm(self, z):
        """``max_x |<x, z>|`` over the vertices, via the variant's closed form."""
        return abs(self._extreme_products(z)).max()

    def dual_witness(self, z):
        """A vertex achieving the dual norm."""
        raise NotImplementedError

    def _extreme_products(self, z):
        """(min, max) of ``<x, z>`` over vertices."""
        raise NotImplementedError

    def validate_loss(self, y, tol=FEAS_TOL):
        """Check ``max_x |<x, y>| <= 1 + tol``; report a witness on failure."""
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            return LossCheck(False, float("inf"), None)
        value = self.dual_norm(y)
        if value <= 1.0 + tol:
            return LossCheck(True, float(value), None)
        return LossCheck(False, float(value), self.dual_witness(y))

    def best_vertex(self, cum_loss):
        """Exact minimizer of ``<x, cum_loss>`` with canonical tie-breaking.

        Returns ``(vertex, value)``.
        """
        raise NotImplementedError

    def membership_residual(self, x):
        """How far ``x`` is from the convex hull (0 means inside)."""
        raise NotImplementedError


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

    def log_count(self):
        return math.log(self.count())

    def enumerate_vertices(self, cap=ENUMERATION_CAP):
        if self.count() > cap:
            raise CapExceeded(f"{self.count()} vertices exceed cap {cap}")
        return [v.copy() for v in self.vertices]

    def _extreme_products(self, z):
        prods = self.vertices @ np.asarray(z, dtype=float)
        return np.array([prods.min(), prods.max()])

    def dual_witness(self, z):
        prods = self.vertices @ np.asarray(z, dtype=float)
        return self.vertices[int(np.argmax(np.abs(prods)))].copy()

    def best_vertex(self, cum_loss):
        prods = self.vertices @ np.asarray(cum_loss, dtype=float)
        idx = int(np.argmin(prods))
        return self.vertices[idx].copy(), float(prods[idx])

    def membership_residual(self, x):
        # Linear feasibility: x = V' w, w >= 0, sum w = 1 (desk-scale LP).
        x = np.asarray(x, dtype=float)
        n = self.count()
        a_eq = np.vstack([self.vertices.T, np.ones(n)])
        b_eq = np.concatenate([x, [1.0]])
        res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, None)] * n, method="highs")
        if res.status == 0:
            return 0.0
        # Infeasible: report distance via minimised constraint violation.
        slack = linprog(
            np.concatenate([np.zeros(n), [1.0]]),
            A_ub=np.vstack([
                np.hstack([a_eq, -np.ones((a_eq.shape[0], 1))]),
                np.hstack([-a_eq, -np.ones((a_eq.shape[0], 1))]),
            ]),
            b_ub=np.concatenate([b_eq, -b_eq]),
            bounds=[(0, None)] * n + [(0, None)],
            method="highs",
        )
        return float(slack.x[-1]) if slack.status == 0 else float("inf")


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

    def enumerate_vertices(self, cap=ENUMERATION_CAP):
        if self.count() > cap:
            raise CapExceeded(f"{self.count()} vertices exceed cap {cap}")
        out = []
        for combo in itertools.combinations(range(self.dimension), self.m):
            x = np.zeros(self.dimension)
            x[list(combo)] = 1.0
            out.append(x)
        return out

    def _extreme_products(self, z):
        z = np.sort(np.asarray(z, dtype=float))
        return np.array([z[: self.m].sum(), z[-self.m:].sum()])

    def dual_witness(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self._extreme_products(z)
        x = np.zeros(self.dimension)
        order = np.argsort(z, kind="stable")
        if abs(hi) >= abs(lo):
            x[order[-self.m:]] = 1.0
        else:
            x[order[: self.m]] = 1.0
        return x

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

    def membership_residual(self, x):
        x = np.asarray(x, dtype=float)
        res = abs(x.sum() - self.m)
        res = max(res, float(np.max(np.maximum(-x, x - 1.0), initial=0.0)))
        return res


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

    def enumerate_vertices(self, cap=ENUMERATION_CAP):
        if self.count() > cap:
            raise CapExceeded(f"{self.count()} vertices exceed cap {cap}")
        out = []
        for combo in itertools.product(*(range(b) for b in self.block_sizes)):
            x = np.zeros(self.dimension)
            for sl, j in zip(self.block_slices, combo):
                x[sl.start + j] = 1.0
            out.append(x)
        return out

    def _extreme_products(self, z):
        z = np.asarray(z, dtype=float)
        lo = sum(z[sl].min() for sl in self.block_slices)
        hi = sum(z[sl].max() for sl in self.block_slices)
        return np.array([lo, hi])

    def dual_witness(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self._extreme_products(z)
        x = np.zeros(self.dimension)
        for sl in self.block_slices:
            j = int(np.argmax(z[sl])) if abs(hi) >= abs(lo) else int(np.argmin(z[sl]))
            x[sl.start + j] = 1.0
        return x

    def best_vertex(self, cum_loss):
        cum_loss = np.asarray(cum_loss, dtype=float)
        x = np.zeros(self.dimension)
        total = 0.0
        for sl in self.block_slices:
            j = int(np.argmin(cum_loss[sl]))  # argmin takes first on ties
            x[sl.start + j] = 1.0
            total += float(cum_loss[sl.start + j])
        return x, total

    @functools.cached_property
    def path_embedding(self):
        """A chain with one bundle of parallel edges per block; edge ``e``
        carries coordinate ``e``."""
        edges = [(b, b + 1) for b, size in enumerate(self.block_sizes)
                 for _ in range(size)]
        n = len(self.block_sizes)
        return Dag(n + 1, edges, 0, n), np.arange(self.dimension)

    def membership_residual(self, x):
        x = np.asarray(x, dtype=float)
        res = max(abs(x[sl].sum() - 1.0) for sl in self.block_slices)
        res = max(res, float(np.max(np.maximum(-x, x - 1.0), initial=0.0)))
        return res


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

    def log_count(self):
        return math.log(self.count())

    def enumerate_vertices(self, cap=ENUMERATION_CAP):
        return self.dag.enumerate_paths(cap=cap)

    def _extreme_products(self, z):
        lo, hi = self.dag.extreme_path_weights(z)
        return np.array([lo, hi])

    def dual_witness(self, z):
        lo, hi = self.dag.extreme_path_weights(z)
        mode = "max" if abs(hi) >= abs(lo) else "min"
        return self.dag.extreme_path(z, mode=mode)

    def best_vertex(self, cum_loss):
        x = self.dag.extreme_path(cum_loss, mode="min")
        return x, float(x @ np.asarray(cum_loss, dtype=float))

    def membership_residual(self, x):
        _, res = flow_check(self.dag, x)
        return res


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


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def primal_norm_bruteforce(decision_set, z, cap=ENUMERATION_CAP, tol=1e-8):
    """The norm dual to ``dual_norm``: ``max { <y, z> : max_x |<x,y>| <= 1 }``.

    Solved as an LP over the enumerated vertex constraints.  Test-time
    oracle only; the constraint matrix has two rows per vertex.
    """
    z = np.asarray(z, dtype=float)
    vertices = decision_set.enumerate_vertices(cap=cap)
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
    if violation > tol:
        raise SolverFailure("LP certificate residual too large",
                            residual=violation)
    return float(-res.fun)
