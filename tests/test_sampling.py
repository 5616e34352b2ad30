import itertools
import math
import warnings

import numpy as np
import pytest

import comblab as cl
from comblab.instances import (chain_dag, diamond_dag, parallel_dag,
                               random_layered_dag)
from comblab.learners import weight_pushing_marginals
from comblab.sampling import (_NO_FLOW, RngStream, draw_paths, sample_explicit,
                              sample_mset, sample_path)


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


def _reference_draw(dag, flow, gen):
    """The contract of ``sample_path``, one vertex at a time in Python:
    every vertex of out-degree 2 or more, by out-degree and then by index,
    takes one uniform and picks the number of its running flow sums, all
    but the last, that are at most the uniform times the last; the path
    follows the picks from the source."""
    out = [edges.tolist() for edges in dag.out_edges]
    pick = {u: edges[0] for u, edges in enumerate(out) if len(edges) == 1}
    for _, u in sorted((len(edges), u) for u, edges in enumerate(out)
                       if len(edges) >= 2):
        point = gen.random()
        sums = list(itertools.accumulate(flow[out[u]].tolist()))
        pick[u] = out[u][sum(s <= point * sums[-1] for s in sums[:-1])]
    x = np.zeros(dag.n_edges)
    u = dag.source
    while u != dag.sink:
        x[pick[u]] = 1.0
        u = dag.edges[pick[u]][1]
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
def test_sample_path_draws_by_the_reference_pick(spec, cut):
    # Pins the draw: should it change, this fails instead of sampled CSVs
    # moving silently.  Fan-outs of 12, 20 and 64 take long running sums;
    # a cut flow has zero-flow branches and vertices that no path reaches.
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
                              _reference_draw(dag, flow, theirs.generator))
    assert _same_state(ours.generator.bit_generator.state,
                       theirs.generator.bit_generator.state)


def _one_row(dag, flow, uniforms):
    """``draw_paths`` on one row: its path, or the error it raises."""
    paths, error = draw_paths(dag, flow[None], uniforms[None])
    return paths[0] if error is None else (type(error), str(error))


def _draw_graphs():
    """Graded random DAGs with out-degrees 1 to 4 side by side, a chain of
    fan-outs 2, 4 and 8, the m-set and layered specs, paths of one to three
    hops, and a dead end."""
    dags = [random_layered_dag(RngStream(49, 1 + i), max_edges=30, max_width=4)
            for i in range(8)]
    dags += [cl.build_set(spec).path_embedding[0]
             for spec in ["multitask:2,4,8", *_DRAW_SPECS]]
    dags.append(cl.Dag(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4),
                           (2, 5), (3, 5), (4, 5), (0, 5)], 0, 5))
    dags.append(cl.Dag(5, [(0, 1), (0, 2), (1, 4), (2, 4), (1, 3)], 0, 4))
    return dags


def test_draw_paths_rows_are_its_one_row_calls_bit_for_bit():
    # A planned Hedge draws a chunk's rows in one call where the per-round
    # learner draws one row: no row may depend on the rows drawn with it.
    # Large weights give thin rows, a zeroed outflow starves a middle
    # vertex that the path may meet, a NaN row is rejected.
    gen = RngStream(49, 0).generator
    thin = starved = 0
    for dag in _draw_graphs():
        log_w = 20 * gen.standard_normal((dag.n_edges, 40))
        flows = np.ascontiguousarray(weight_pushing_marginals(dag, log_w).T)
        for r in range(0, 40, 4):
            v = int(gen.integers(1, dag.sink))
            flows[r, dag.out_edges[v]] = 0.0
        flows[37, 0] = np.nan
        thin += (flows.min(axis=1) <= _NO_FLOW).sum()
        uniforms = gen.random((40, dag.draw_layout.branching))
        paths, error = draw_paths(dag, flows, uniforms)
        want = [_one_row(dag, flows[r], uniforms[r]) for r in range(40)]
        fails = [r for r, w in enumerate(want) if isinstance(w, tuple)]
        starved += sum(want[r][0] is cl.DegenerateVertex for r in fails)
        assert fails[0] <= 37 and paths == want[:fails[0]]
        assert (type(error), str(error)) == want[fails[0]]
    assert thin > 400 and starved > 40, (thin, starved)


def test_sample_path_raises_only_at_a_visited_vertex_without_outflow():
    # vertex 1 branches to the sink twice, vertex 2 likewise, vertex 4 has
    # one edge; a vertex that no draw reaches may carry no flow at all
    dag = cl.Dag(5, [(0, 1), (0, 2), (1, 3), (1, 3), (2, 3), (2, 3),
                     (0, 4), (4, 3)], 0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unvisited empty star is quiet
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
            # the draw took its uniforms, one per branching vertex, 0 to 2
            assert dag.draw_layout.branching == 3
            drawn = RngStream(48, 1).generator
            drawn.random(3)
            assert _same_state(rng.generator.bit_generator.state,
                               drawn.bit_generator.state)


def test_a_batch_of_uniforms_is_as_many_draws_one_at_a_time():
    # a planned chunk takes its rounds' uniforms in one call where
    # sample_path takes one row per round: Philox gives the same doubles
    # and state
    batched, single = RngStream(50, 1).generator, RngStream(50, 1).generator
    block = batched.random((7, 5))
    assert block.tolist() == [single.random((1, 5))[0].tolist()
                              for _ in range(7)]
    assert _same_state(batched.bit_generator.state, single.bit_generator.state)


_FAIR = [0.5, 0.3, 0.25, 0.25, 0.15, 0.15, 0.2, 0.2]


@pytest.mark.parametrize("flow", [
    pytest.param(_FAIR, id="fair"),
    pytest.param([1.0, 0, 0, 0, 0, 0, 0, 0], id="starved"),
    pytest.param(_FAIR[:3] + [-1e-3] + _FAIR[4:], id="negative"),
    pytest.param(_FAIR[:3] + [np.nan] + _FAIR[4:], id="nan"),
    pytest.param(_FAIR[:3] + [np.inf] + _FAIR[4:], id="inf"),
    pytest.param([1e308] * 8, id="overflow")])
def test_sample_path_is_one_row_of_draw_paths(flow):
    # the same path, or the same error, and the same generator state as
    # draw_paths on the generator's random((1, branching)); a rejected
    # flow takes its uniforms as a rejected row of a planned chunk does
    dag = cl.Dag(5, [(0, 1), (0, 2), (1, 3), (1, 3), (2, 3), (2, 3),
                     (0, 4), (4, 3)], 0, 3)
    flow = np.array(flow)
    ours, theirs = RngStream(45, 0), RngStream(45, 0)
    for _ in range(20):
        try:
            got = np.flatnonzero(sample_path(dag, flow, ours)).tolist()
        except cl.ComblabError as error:
            got = (type(error), str(error))
        uniforms = theirs.generator.random((1, dag.draw_layout.branching))
        paths, error = draw_paths(dag, flow[None], uniforms)
        assert got == (sorted(paths[0]) if error is None
                       else (type(error), str(error)))
        assert _same_state(ours.generator.bit_generator.state,
                           theirs.generator.bit_generator.state)


def test_a_flow_whose_outflow_overflows_is_rejected_without_warning():
    # 1e308 on both out-edges of the source: their sum overflows.  Such a
    # row is rejected, as Generator.choice rejects its probabilities; a row
    # drawn beside it keeps its own path.
    dag = diamond_dag()
    big, fair = np.full(4, 1e308), np.array([0.3, 0.7, 0.3, 0.7])
    uniforms = np.array([[0.5], [0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cl.PreconditionError, match="finite and non-negative"):
            sample_path(dag, big, RngStream(56, 0))
        paths, error = draw_paths(dag, np.array([fair, big]), uniforms)
        first, first_error = draw_paths(dag, np.array([big, fair]), uniforms)
    assert paths == [[1, 3]] and isinstance(error, cl.PreconditionError)
    assert first == [] and isinstance(first_error, cl.PreconditionError)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_mset_rejects_a_non_finite_policy_before_drawing(bad):
    # abs(nan - m) > 1e-9 is false, so the sum check alone lets NaN by
    rng = RngStream(57, 0)
    with pytest.raises(cl.PreconditionError, match="finite"):
        sample_mset(np.array([0.5, 0.5, bad, 0.5, 0.5]), 2, rng)
    assert _same_state(rng.generator.bit_generator.state,
                       RngStream(57, 0).generator.bit_generator.state)


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
