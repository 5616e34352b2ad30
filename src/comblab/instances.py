"""Random desk-scale instances for property checks, tests, and demos."""

import numpy as np

from .domain import Dag


def random_layered_dag(rng, max_edges=15, max_paths=None, max_layers=3,
                       max_width=3):
    """Small random DAG where every vertex lies on an s-t path.

    Vertices are arranged source -> middle layers -> sink; every middle
    vertex gets at least one incoming and one outgoing edge, then each
    pair of vertices in consecutive layers is joined with probability 0.35.
    Resamples until the edge/path budgets hold, so the result is always a
    valid carrier with at least two paths (unless the budgets force a
    single chain).
    """
    gen = rng.generator
    for _ in range(200):
        n_layers = int(gen.integers(1, max_layers + 1))
        widths = [int(gen.integers(1, max_width + 1)) for _ in range(n_layers)]
        layers = [[0]]
        nxt = 1
        for w in widths:
            layers.append(list(range(nxt, nxt + w)))
            nxt += w
        layers.append([nxt])
        n_vertices = nxt + 1
        edges = set()
        for a_layer, b_layer in zip(layers[:-1], layers[1:]):
            for b in b_layer:
                edges.add((int(gen.choice(a_layer)), b))
            for a in a_layer:
                if not any(e[0] == a for e in edges):
                    edges.add((a, int(gen.choice(b_layer))))
            for a in a_layer:
                for b in b_layer:
                    if gen.uniform() < 0.35:
                        edges.add((a, b))
        edges = sorted(edges)
        if len(edges) > max_edges:
            continue
        dag = Dag(n_vertices, edges, 0, n_vertices - 1)
        if dag.validate():
            continue
        if max_paths is not None and dag.path_count() > max_paths:
            continue
        return dag
    raise RuntimeError("could not draw a DAG within the budgets")


def random_interior_flow(dag, rng):
    """Strictly positive point of the flow polytope: a flat-Dirichlet mixture
    of all s-t paths (every edge lies on some path, so all coordinates are
    positive almost surely)."""
    paths = np.asarray(dag.enumerate_paths())
    weights = rng.generator.dirichlet(np.full(paths.shape[0], 1.0))
    return weights @ paths


def random_mset_interior(mset, rng):
    """Strictly interior point of the m-set hull: four random vertices
    mixed and pulled a tenth of the way toward the uniform centre."""
    gen = rng.generator
    d, m = mset.dimension, mset.m
    combo = np.zeros(d)
    coeffs = gen.dirichlet(np.ones(4))
    for c in coeffs:
        idx = gen.choice(d, size=m, replace=False)
        v = np.zeros(d)
        v[idx] = 1.0
        combo += c * v
    return 0.9 * combo + 0.1 * (m / d)


def random_feasible_loss(decision_set, rng, scale=None):
    """Random loss vector with dual norm at most one (uniformly scaled)."""
    gen = rng.generator
    w = gen.standard_normal(decision_set.dimension)
    norm = decision_set.dual_norm(w)
    if norm == 0:
        return w * 0.0
    s = gen.uniform(0.2, 1.0) if scale is None else scale
    return s * w / norm


def random_span_direction(dag, rng):
    """Random element of the span of path indicators, built from three
    differences of paths, normalised to unit Euclidean norm."""
    gen = rng.generator
    paths = dag.enumerate_paths()
    z = np.zeros(dag.n_edges)
    for _ in range(3):
        a = paths[int(gen.integers(len(paths)))]
        b = paths[int(gen.integers(len(paths)))]
        z += gen.standard_normal() * (a - b)
    nrm = np.linalg.norm(z)
    if nrm < 1e-12:
        # all draws collided; a single path difference or zero is still in the span
        return z
    return z / nrm


def diamond_dag():
    """The two-path diamond: s->a->t and s->b->t (edge order s-a, s-b, a-t, b-t)."""
    return Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)


def parallel_dag(n_edges=2):
    """Source and sink joined by parallel edges."""
    return Dag(2, [(0, 1)] * n_edges, 0, 1)


def chain_dag(n_edges=3):
    """A single path of ``n_edges`` edges."""
    return Dag(n_edges + 1, [(i, i + 1) for i in range(n_edges)], 0, n_edges)


def hypercube_set(d):
    """The full binary hypercube as an explicit decision set."""
    from .domain import ExplicitSet
    import itertools
    return ExplicitSet(list(itertools.product((0, 1), repeat=d)))

