import math
import warnings

import numpy as np
import pytest

import comblab as cl
from comblab.instances import (chain_dag, diamond_dag, parallel_dag,
                               random_layered_dag)
from comblab.learners import weight_pushing_marginals
from comblab.sampling import (_NO_FLOW, RngStream, path_cdfs, sample_explicit,
                              sample_mset, sample_path, walk_path, walk_paths)


def test_rng_stream_determinism_and_independence():
    a = RngStream(42, 1).generator.uniform(size=5)
    b = RngStream(42, 1).generator.uniform(size=5)
    c = RngStream(42, 2).generator.uniform(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    sub = RngStream(42, 1).substream(7)
    assert sub.key == (1, 7)


# ---------------------------------------------------------------------------
# path sampler
# ---------------------------------------------------------------------------

def test_sample_path_single_path():
    dag = chain_dag(3)
    x = sample_path(dag, np.ones(3), RngStream(0, 0))
    assert x.tolist() == [1.0, 1.0, 1.0]


def test_sample_path_diamond_symmetric():
    dag = diamond_dag()
    rng = RngStream(1, 0)
    n = 100_000
    acc = np.zeros(4)
    for _ in range(n):
        acc += sample_path(dag, np.full(4, 0.5), rng)
    emp = acc / n
    band = 3.0 * math.sqrt(0.25 / n)
    assert np.all(np.abs(emp - 0.5) <= band)


def test_sample_path_three_parallel_edges():
    dag = parallel_dag(3)
    flow = np.array([0.2, 0.3, 0.5])
    rng = RngStream(2, 0)
    n = 100_000
    acc = np.zeros(3)
    for _ in range(n):
        x = sample_path(dag, flow, rng)
        assert x.sum() == 1.0
        acc += x
    emp = acc / n
    band = 3.0 * np.sqrt(flow * (1 - flow) / n)
    assert np.all(np.abs(emp - flow) <= band)


def test_sample_path_degenerate_vertex():
    dag = diamond_dag()
    with pytest.raises(cl.DegenerateVertex):
        sample_path(dag, np.zeros(4), RngStream(0, 0))


def test_sample_path_always_valid():
    dag = diamond_dag()
    rng = RngStream(3, 0)
    flow = np.array([0.25, 0.75, 0.25, 0.75])
    for _ in range(500):
        x = sample_path(dag, flow, rng)
        ok, _ = cl.flow_check(dag, x)
        assert ok


def _choice_walk(dag, flow, gen):
    """The Markovian draw with one ``Generator.choice`` per vertex, which
    ``sample_path`` reproduces without calling it."""
    x = np.zeros(dag.n_edges)
    u = dag.source
    while u != dag.sink:
        out = dag.out_edges[u]
        mass = flow[out]
        e = out[gen.choice(len(out), p=mass / mass.sum())]
        x[e] = 1.0
        u = dag.edges[e][1]
    return x


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


_DRAW_SPECS = ["dag-layered:64:4096", "dag-layered:16:32", "mset:16:4",
               "multitask:12,20", "dag-layered:256:65536"]


@pytest.mark.parametrize("spec, cut", [
    *(pytest.param(spec, False, id=spec) for spec in _DRAW_SPECS),
    *(pytest.param(spec, True, id=f"{spec}-cut") for spec in _DRAW_SPECS)])
def test_sample_path_draws_as_generator_choice(spec, cut):
    # Pins the draw against numpy's own choice: should numpy change how
    # choice draws, this fails instead of sampled CSVs moving silently.
    # Fan-outs of 12, 20 and 64 sum pairwise, not left to right; a cut
    # flow has zero-flow branches and vertices that no path reaches.
    dag = cl.build_set(spec).path_embedding[0]
    gen = RngStream(44, 0).generator
    log_w = gen.standard_normal(dag.n_edges)
    if cut:  # off the first path, so that one path keeps its weight
        off = dag.extreme_path(np.zeros(dag.n_edges)) == 0.0
        log_w[off & (gen.random(dag.n_edges) < 0.3)] = -np.inf
    flow = weight_pushing_marginals(dag, log_w)
    assert np.all(np.isfinite(flow)) and (flow == 0.0).any() == cut
    ours, theirs = RngStream(44, 1), RngStream(44, 1)
    for _ in range(2000):
        assert np.array_equal(sample_path(dag, flow, ours),
                              _choice_walk(dag, flow, theirs.generator))
    assert _same_state(ours.generator.bit_generator.state,
                       theirs.generator.bit_generator.state)


@pytest.mark.parametrize("spec", _DRAW_SPECS)
def test_path_cdfs_rows_are_the_one_row_tables_bit_for_bit(spec):
    # A planned Hedge walks rows of a chunk's tables where the per-round
    # learner walks sample_path's one-row table: each row must not depend
    # on the rows built with it.  multitask:12,20 has a one-vertex group
    # per fan-out; large weights give thin rows; row 5 is rejected alone.
    dag = cl.build_set(spec).path_embedding[0]
    log_w = RngStream(46, 0).generator.standard_normal((dag.n_edges, 64))
    flows = np.ascontiguousarray(weight_pushing_marginals(dag, 20 * log_w).T)
    flows[5, 0] = np.nan
    cdf, dead = path_cdfs(dag, flows)
    assert dead[5] is None and (flows.min(axis=1) <= _NO_FLOW).sum() > 30
    for r in range(64):
        one, (one_dead,) = path_cdfs(dag, flows[r][None])
        assert one_dead == dead[r]
        if r != 5:
            assert np.array_equal(one[0], cdf[r])


def test_sample_path_raises_only_at_a_visited_vertex_without_outflow():
    # vertex 1 branches to the sink twice, vertex 2 likewise, vertex 4 has
    # one edge; a vertex that no draw reaches may carry no flow at all
    dag = cl.Dag(5, [(0, 1), (0, 2), (1, 3), (1, 3), (2, 3), (2, 3),
                     (0, 4), (4, 3)], 0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 0 / 0 in an unread row would warn
        rng = RngStream(48, 0)
        flow = np.array([1.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        for _ in range(200):
            assert np.flatnonzero(sample_path(dag, flow, rng))[0] == 0
        for flow, vertex in (([1.0, 0, 0, 0, 0, 0, 0, 0], 1),
                             ([0, 1.0, 0.5, 0.5, 0, 0, 0, 0], 2),
                             ([0, 0, 0.5, 0.5, 0, 0, 1.0, 0], 4)):
            rng = RngStream(48, 1)
            with pytest.raises(cl.DegenerateVertex, match=f"vertex {vertex}$"):
                sample_path(dag, np.array(flow), rng)
            # the source's draw was made, the vertex's own was not
            drawn = RngStream(48, 1).generator
            drawn.random()
            assert _same_state(rng.generator.bit_generator.state,
                               drawn.bit_generator.state)


class _Given:
    """A stream whose generator gives these uniforms in turn."""

    def __init__(self, uniforms):
        self.generator = self
        self._next = iter(uniforms.tolist())

    def random(self):
        return next(self._next)


def _walked(dag, cdf, dead, uniforms):
    """``walk_path`` on one row: its edges, or the error it raises."""
    try:
        return walk_path(dag, cdf.tolist(), dead, _Given(uniforms))
    except cl.ComblabError as err:
        return type(err), str(err)


def test_walk_paths_is_walk_path_row_by_row():
    # Random graded DAGs, out-degrees 1 to 4 side by side, and a chain of
    # fan-outs 2, 4 and 8; large weights give thin rows, a zeroed outflow
    # starves a middle vertex that the walk may meet, a NaN row is rejected.
    gen = RngStream(49, 0).generator
    dags = [random_layered_dag(RngStream(49, 1 + i), max_edges=30, max_width=4)
            for i in range(12)]
    dags.append(cl.build_set("multitask:2,4,8").path_embedding[0])
    thin = starved = 0
    for dag in dags:
        hops = dag.hop_count
        assert hops == max(dag._kahn_levels[1])  # all edges join two layers
        log_w = 20 * gen.standard_normal((dag.n_edges, 40))
        flows = np.ascontiguousarray(weight_pushing_marginals(dag, log_w).T)
        for r in range(0, 40, 4):
            v = int(gen.integers(1, dag.sink))
            flows[r, dag.out_edges[v]] = 0.0
        flows[37, 0] = np.nan
        cdf, dead = path_cdfs(dag, flows)
        thin += sum(d is not None and len(d) > 0 for d in dead)
        uniforms = gen.random((40, hops))
        edges, error = walk_paths(dag, cdf, dead, uniforms)
        first_fail = None
        for r in range(40):
            want = _walked(dag, cdf[r], dead[r], uniforms[r])
            one, one_error = walk_paths(dag, cdf[r:r + 1], dead[r:r + 1],
                                        uniforms[r:r + 1])
            if isinstance(want, list):
                assert one_error is None and one.tolist() == [want]
                if first_fail is None:
                    assert edges[r].tolist() == want
            else:
                starved += want[0] is cl.DegenerateVertex
                assert len(one) == 0 and (type(one_error), str(one_error)) == want
                if first_fail is None:
                    first_fail = r
                    assert (type(error), str(error)) == want
        assert len(edges) == first_fail
    assert thin > 100 and starved > 20, (thin, starved)


def test_a_batch_of_uniforms_is_as_many_draws_one_at_a_time():
    # walk_paths takes a chunk's uniforms in one call where walk_path
    # takes them one per hop: Philox gives the same doubles and state
    batched, single = RngStream(50, 1).generator, RngStream(50, 1).generator
    block = batched.random((7, 5))
    assert block.ravel().tolist() == [single.random() for _ in range(35)]
    assert _same_state(batched.bit_generator.state, single.bit_generator.state)


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
def test_sample_path_rejects_a_bad_flow_before_drawing(bad):
    # Generator.choice rejects such probabilities; the check runs once per
    # call, on the whole flow, before any draw.
    dag = diamond_dag()
    flow = np.array([0.5, 0.5, 0.5, 0.5])
    flow[3] = bad
    rng = RngStream(45, 0)
    with pytest.raises(cl.PreconditionError, match="finite and non-negative"):
        sample_path(dag, flow, rng)
    assert _same_state(rng.generator.bit_generator.state,
                       RngStream(45, 0).generator.bit_generator.state)


def test_a_flow_whose_outflow_overflows_is_rejected_without_warning():
    # 1e308 on both out-edges of the source: their sum overflows.  Such a
    # row is rejected before any draw, as Generator.choice rejects its
    # probabilities; a row built beside it keeps its own table.
    dag = diamond_dag()
    big, fair = np.full(4, 1e308), np.array([0.3, 0.7, 0.3, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng = RngStream(56, 0)
        with pytest.raises(cl.PreconditionError, match="finite and non-negative"):
            sample_path(dag, big, rng)
        cdf, dead = path_cdfs(dag, np.array([fair, big]))
        one, one_dead = path_cdfs(dag, fair[None])
        edges, error = walk_paths(dag, cdf[::-1], dead[::-1],
                                  np.zeros((2, dag.hop_count)))
    assert _same_state(rng.generator.bit_generator.state,
                       RngStream(56, 0).generator.bit_generator.state)
    assert dead[1] is None and dead[0] == one_dead[0]
    assert np.array_equal(cdf[0], one[0])
    assert len(edges) == 0 and isinstance(error, cl.PreconditionError)


# ---------------------------------------------------------------------------
# m-set sampler
# ---------------------------------------------------------------------------

def test_sample_mset_vertex_passthrough():
    x = np.array([1.0, 0.0, 1.0, 0.0])
    for i in range(20):
        assert np.array_equal(sample_mset(x, 2, RngStream(4, i)), x)


def test_sample_mset_uniform_marginals():
    rng = RngStream(5, 0)
    n = 100_000
    acc = np.zeros(4)
    for _ in range(n):
        x = sample_mset(np.full(4, 0.5), 2, rng)
        assert x.sum() == 2.0
        acc += x
    emp = acc / n
    band = 3.0 * math.sqrt(0.25 / n)
    assert np.all(np.abs(emp - 0.5) <= band)


def test_sample_mset_capped_coordinate():
    policy = np.array([1.0, 0.6, 0.4])
    rng = RngStream(6, 0)
    n = 100_000
    acc = np.zeros(3)
    for _ in range(n):
        x = sample_mset(policy, 2, rng)
        assert x[0] == 1.0 and x.sum() == 2.0
        acc += x
    emp = acc / n
    band = 3.0 * np.sqrt(policy * (1 - policy) / n) + 1e-12
    assert np.all(np.abs(emp - policy) <= band)


def test_sample_mset_rejects_bad_sum():
    with pytest.raises(cl.PreconditionError):
        sample_mset(np.array([0.5, 0.5, 0.5]), 2, RngStream(0, 0))
    with pytest.raises(cl.PreconditionError):
        sample_mset(np.array([1.5, 0.5]), 2, RngStream(0, 0))


# ---------------------------------------------------------------------------
# categorical sampler
# ---------------------------------------------------------------------------

def test_sample_explicit_point_mass():
    verts = np.array([[1.0, 0.0], [0.0, 1.0]])
    for i in range(10):
        x = sample_explicit(verts, np.array([0.0, 3.0]), RngStream(7, i))
        assert x.tolist() == [0.0, 1.0]


def test_sample_explicit_even_and_weighted():
    verts = np.array([[1.0, 0.0], [0.0, 1.0]])
    n = 100_000
    rng = RngStream(8, 0)
    acc = np.zeros(2)
    for _ in range(n):
        acc += sample_explicit(verts, np.array([1.0, 1.0]), rng)
    assert np.all(np.abs(acc / n - 0.5) <= 3.0 * math.sqrt(0.25 / n))
    rng = RngStream(8, 1)
    acc = np.zeros(2)
    w = np.array([1.0, math.e])
    for _ in range(n):
        acc += sample_explicit(verts, w, rng)
    target = w / w.sum()
    band = 3.0 * np.sqrt(target * (1 - target) / n)
    assert np.all(np.abs(acc / n - target) <= band)


def test_sample_explicit_rejects_degenerate_weights():
    verts = np.array([[1.0], [0.0]])
    with pytest.raises(cl.PreconditionError):
        sample_explicit(verts, np.zeros(2), RngStream(0, 0))
    with pytest.raises(cl.PreconditionError):
        sample_explicit(verts, np.array([1.0, -0.5]), RngStream(0, 0))


# ---------------------------------------------------------------------------
# learner samplers match their policies
# ---------------------------------------------------------------------------

def test_learner_samplers_are_expectation_matched():
    rng = RngStream(9, 0)
    n = 40_000
    dset = cl.MSet(5, 2)
    learner = cl.MSetOmd(dset, 0.3)
    learner.step(np.array([0.4, -0.2, 0.0, 0.1, -0.3]))
    policy = learner.propose()
    acc = np.zeros(5)
    for i in range(n):
        acc += learner.sample(rng)
    band = 4.0 * np.sqrt(policy * (1 - policy) / n)
    assert np.all(np.abs(acc / n - policy) <= band)


def test_mset_hedge_sampler_matches_marginals():
    rng = RngStream(10, 0)
    n = 40_000
    dset = cl.MSet(6, 2)
    learner = cl.PathHedge(dset, 0.9)
    learner.step(np.array([0.5, -0.3, 0.2, 0.0, -0.1, 0.1]))
    policy = learner.propose()
    acc = np.zeros(6)
    for _ in range(n):
        x = learner.sample(rng)
        assert x.sum() == 2.0
        acc += x
    band = 4.0 * np.sqrt(policy * (1 - policy) / n)
    assert np.all(np.abs(acc / n - policy) <= band)
