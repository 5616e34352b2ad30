import itertools
import math
import os
import pathlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import comblab as cl
from comblab.instances import (chain_dag, diamond_dag, hypercube_set,
                               parallel_dag, random_feasible_loss,
                               random_layered_dag)
from comblab.domain import FEAS_TOL, SelectionDag, mset_selection_dag
from comblab.sampling import RngStream


def bits(*strings):
    return [np.array([float(c) for c in s]) for s in strings]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_mset_enumeration_order_and_count():
    got = [''.join(str(int(b)) for b in v)
           for v in cl.MSet(4, 2).enumerate_vertices()]
    assert got == ['1100', '1010', '1001', '0110', '0101', '0011']


def test_multitask_enumeration_product():
    vs = cl.MultitaskSet([2, 3]).enumerate_vertices()
    assert len(vs) == 6
    for v in vs:
        assert v[:2].sum() == 1 and v[2:].sum() == 1
    # no duplicates
    assert len({tuple(v) for v in vs}) == 6


def test_single_edge_dag_enumeration():
    dset = cl.DagPathSet(cl.Dag(2, [(0, 1)], 0, 1))
    vs = dset.enumerate_vertices()
    assert len(vs) == 1 and vs[0].tolist() == [1.0]


def test_enumeration_cap():
    with pytest.raises(cl.CapExceeded):
        cl.MSet(40, 10).enumerate_vertices()


def test_explicit_set_rejects_bad_input():
    with pytest.raises(cl.PreconditionError):
        cl.ExplicitSet([[0, 2]])
    with pytest.raises(cl.PreconditionError):
        cl.ExplicitSet([[0, 1], [0, 1]])
    with pytest.raises(cl.PreconditionError):
        cl.MSet(4, 3)  # m > d/2


@pytest.mark.parametrize("vectors, message", [
    ([[1, 0], [1, 0, 1]], "vertices of unequal lengths [2, 3]"),
    ([[1, 0, 1], [0, 1], [1]], "vertices of unequal lengths [1, 2, 3]"),
    # one entry 2-D, of the same size as the other
    ([[1, 0], [[0], [1]]], "need a non-empty 2-D array of vertices")],
    ids=["two-lengths", "three-lengths", "a-2d-entry"])
def test_explicit_set_rejects_ragged_vertices(vectors, message):
    with pytest.raises(cl.PreconditionError, match=f"^{re.escape(message)}$"):
        cl.ExplicitSet(vectors)


def test_explicit_set_finds_a_duplicate_among_many_vertices():
    # all 2**16 vertices of the 16-cube, then one of them again: after the
    # sort the two copies are neighbours, anywhere in the order
    cube = (np.arange(2 ** 16)[:, None] >> np.arange(16)) & 1
    assert cl.ExplicitSet(cube).count() == 2 ** 16
    for row in (0, 12345, 2 ** 16 - 1):
        with pytest.raises(cl.PreconditionError,
                           match="^vertices must be distinct$"):
            cl.ExplicitSet(np.vstack([cube, cube[row]]))


# ---------------------------------------------------------------------------
# dual norm
# ---------------------------------------------------------------------------

def test_dual_norm_mset_examples():
    s = cl.MSet(4, 2)
    assert s.dual_norm(np.array([1.0, 1.0, 0.0, 0.0])) == 2.0
    assert s.dual_norm(np.array([1.0, -1.0, 0.5, -0.5])) == 1.5


def test_dual_norm_parallel_edges():
    dset = cl.DagPathSet(parallel_dag(2))
    assert dset.dual_norm(np.array([0.3, -0.9])) == pytest.approx(0.9)


def test_dual_norm_equals_enumeration_everywhere():
    rng = RngStream(5, 1)
    gen = rng.generator
    sets = [cl.MSet(7, 3), cl.MultitaskSet([2, 4, 3]),
            cl.DagPathSet(diamond_dag()), hypercube_set(4)]
    for dset in sets:
        mat = np.asarray(dset.enumerate_vertices())
        for _ in range(200):
            z = gen.standard_normal(dset.dimension)
            assert dset.dual_norm(z) == pytest.approx(
                np.max(np.abs(mat @ z)), abs=1e-12)


def _block_closed_forms(sizes, zs):
    """A multitask set's count, vertices in block-product order, and the
    (min, max) of ``<x, z>`` per row of ``zs``, block extremes summed left
    to right from 0."""
    starts = np.cumsum([0] + sizes[:-1])
    vertices = []
    for combo in itertools.product(*(range(b) for b in sizes)):
        x = np.zeros(sum(sizes))
        x[starts + combo] = 1.0
        vertices.append(x)
    return (math.prod(sizes), np.array(vertices),
            sum(np.minimum.reduceat(zs, starts, axis=1).T),
            sum(np.maximum.reduceat(zs, starts, axis=1).T))


@pytest.mark.parametrize("sizes", [[2, 3], [2, 4, 8], [12, 20], [2] * 10])
def test_multitask_sets_match_their_block_closed_forms(sizes):
    gen = RngStream(18, len(sizes)).generator
    d, n = sum(sizes), len(sizes)
    ints = gen.integers(-2, 3, size=(40, d)).astype(float)  # ties
    signs = np.where(gen.random((40, d)) < 0.5, -1.0, 1.0)  # and -0.0
    gauss = gen.standard_normal((40, d))
    zs = np.vstack([ints * signs, gauss, gauss * 1e300])
    count, vertices, lo, hi = _block_closed_forms(sizes, zs)
    chain = cl.Dag(n + 1, [(b, b + 1) for b, size in enumerate(sizes)
                           for _ in range(size)], 0, n)
    multitask = cl.MultitaskSet(sizes)
    assert not isinstance(multitask, cl.DagPathSet)
    for dset in (multitask, cl.DagPathSet(chain)):
        assert dset.count() == count
        got = np.array(dset.enumerate_vertices())
        assert got.tobytes() == vertices.tobytes()
        got_lo, got_hi = dset._extreme_products(zs)
        assert got_lo.tobytes() == lo.tobytes()
        # the max is minus a min, so a zero max may come out as -0.0
        assert (got_hi + 0.0).tobytes() == hi.tobytes()
        assert dset._dual_norms(zs).tobytes() == np.maximum(abs(lo),
                                                            abs(hi)).tobytes()
    assert multitask.best_values(zs).tobytes() == lo.tobytes()


def test_multitask_enumeration_cap_is_the_path_count_cap():
    with pytest.raises(cl.CapExceeded, match="path count exceeds cap"):
        cl.MultitaskSet([2] * 20 + [3]).enumerate_vertices()


def test_dual_witness_attains_norm():
    rng = RngStream(6, 1)
    gen = rng.generator
    for dset in (cl.MSet(8, 3), cl.MultitaskSet([3, 2]),
                 cl.DagPathSet(diamond_dag()), hypercube_set(3)):
        for _ in range(50):
            z = gen.standard_normal(dset.dimension)
            w = dset.dual_witness(z)
            assert abs(w @ z) == pytest.approx(dset.dual_norm(z), abs=1e-12)
    # entries 1 and 5 tie at the m-th largest: the witness is the
    # lowest-index maximizer, best_vertex(-z)
    dset, z = cl.MSet(6, 2), np.array([0.1, 0.3, -0.2, 0.5, 0.0, 0.3])
    w = dset.dual_witness(z)
    assert w.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]
    assert np.array_equal(w, dset.best_vertex(-z)[0])
    assert w @ z == dset.dual_norm(z)


# ---------------------------------------------------------------------------
# primal norm (LP oracle)
# ---------------------------------------------------------------------------

def test_primal_norm_zero():
    assert cl.primal_norm_bruteforce(cl.MSet(4, 2), np.zeros(4)) == pytest.approx(0.0, abs=1e-9)


def test_primal_norm_basis_vector_bounded():
    v = cl.primal_norm_bruteforce(cl.MSet(4, 2), np.array([1.0, 0, 0, 0]))
    assert v <= 3.0 * 1.0 + 1.0 / 2 + 1e-8


def test_primal_norm_all_ones():
    v = cl.primal_norm_bruteforce(cl.MSet(4, 2), np.ones(4))
    assert v == pytest.approx(2.0, abs=1e-8)


def test_primal_norm_duality_pairing():
    rng = RngStream(7, 2)
    gen = rng.generator
    dset = cl.MSet(9, 3)
    for _ in range(50):
        y = gen.standard_normal(9)
        y /= max(dset.dual_norm(y), 1e-12)
        z = gen.standard_normal(9)
        assert y @ z <= cl.primal_norm_bruteforce(dset, z) + 1e-8


# ---------------------------------------------------------------------------
# loss validation
# ---------------------------------------------------------------------------

def test_validate_loss_accepts_half_vector():
    report = cl.MSet(4, 2).validate_loss(np.full(4, 0.5))
    assert report.ok and report.witness is None


def test_validate_loss_rejects_with_witness():
    report = cl.MSet(4, 2).validate_loss(np.array([1.0, 1.0, 0.0, 0.0]))
    assert not report.ok
    assert report.value == pytest.approx(2.0)
    assert report.witness.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_validate_loss_path_weight():
    dset = cl.DagPathSet(chain_dag(3))
    report = dset.validate_loss(np.full(3, 0.5))
    assert not report.ok and report.value == pytest.approx(1.5)
    assert report.witness.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("dset", [
    cl.MSet(4, 2), cl.MSet(16, 8), cl.MultitaskSet([2, 2]),
    cl.DagPathSet(diamond_dag())],
    ids=["mset:4:2", "mset:16:8", "multitask:2,2", "diamond"])
def test_an_overflowing_action_loss_fails_with_value_inf_and_no_warning(dset):
    # pytest turns a RuntimeWarning into an error here (pyproject.toml)
    d = dset.dimension
    rows = [np.full(d, 1e308), np.full(d, -1e308)]
    if isinstance(dset, cl.MSet) and d == 16:  # sums of both signs: NaN
        rows.append(np.array([-1e308] * 4 + [1e308] * 4 + [1.7e308] * 8))
    for y in rows:
        report = dset.validate_loss(y)
        assert (report.ok, report.value, report.witness) == (False, np.inf, None)
    ok, value = dset.validate_losses(np.array(rows))
    assert not ok.any() and np.all(value == np.inf)


def test_validate_loss_tolerance_edge():
    report = cl.MSet(4, 2).validate_loss(np.array([0.5, 0.5, 0.5, 0.5 + 5e-10]))
    assert report.ok  # inside the 1e-9 feasibility slack


def _batch_test_sets():
    rng = RngStream(43, 0)
    return [cl.MSet(8, 3), cl.MSet(24, 8), cl.MultitaskSet([2, 3, 4]),
            cl.MultitaskSet([2, 3] * 5), cl.DagPathSet(diamond_dag()),
            cl.DagPathSet(_skip_level_dag()),
            cl.DagPathSet(random_layered_dag(rng, max_edges=20)),
            hypercube_set(3)]


def _rows_to_check(dset, gen):
    """Losses on both sides of the unit bound, at 1 + FEAS_TOL and one ulp
    either side of it, with ties, overflowing sums, NaN and inf."""
    d = dset.dimension
    edge = 1.0 + FEAS_TOL
    rows = []
    for value in (edge, np.nextafter(edge, 2.0), np.nextafter(edge, 0.0)):
        for sign in (1.0, -1.0):
            y = np.zeros(d)
            y[d // 2] = sign * value  # the dual norm is exactly |value|
            rows.append(y)
    for scale in (0.5, 1.0, edge, 2.0):
        for _ in range(8):
            z = gen.standard_normal(d)
            rows.append(scale * z / dset.dual_norm(z))
    rows += [gen.integers(-1, 2, size=d) / 4.0 for _ in range(8)]
    rows += [np.zeros(d), np.full(d, 1e308), np.resize([1e308, -1e308], d)]
    for bad in (np.nan, np.inf, -np.inf):
        y = gen.standard_normal(d) / (4 * d)
        y[d - 1] = bad
        rows.append(y)
    return np.array(rows)


def test_validate_losses_match_validate_loss_row_by_row():
    gen = RngStream(44, 0).generator
    for dset in _batch_test_sets():
        rows = _rows_to_check(dset, gen)
        ok, value = dset.validate_losses(rows)
        reports = [dset.validate_loss(y) for y in rows]
        assert ok.tolist() == [r.ok for r in reports]
        assert value.tobytes() == np.array([r.value for r in reports]).tobytes()
        assert ok[:6].tolist() == [True, True, False, False, True, True]
        assert not ok[-3:].any() and np.all(value[-3:] == np.inf)
        ok, value = dset.validate_losses(np.zeros((0, dset.dimension)))
        assert ok.shape == value.shape == (0,)


def test_best_values_match_best_vertex_bit_for_bit():
    gen = RngStream(45, 0).generator
    for dset, rounds in ((cl.MSet(16, 8), 60), (cl.MSet(40, 12), 60),
                         (cl.MultitaskSet([2, 3] * 5), 60),
                         (cl.MultitaskSet([4] * 8), 60),
                         (cl.DagPathSet(_skip_level_dag()), 60),
                         (cl.build_set("dag-layered:64:4096"), 512),
                         (hypercube_set(3), 60)):
        d = dset.dimension
        # small integers tie many coordinates; Gaussians round differently
        # under each summation order
        for ys in (gen.integers(-2, 3, size=(rounds, d)).astype(float),
                   gen.standard_normal((rounds, d))):
            cum = np.cumsum(ys, axis=0)
            want = np.array([dset.best_vertex(row)[1] for row in cum])
            assert dset.best_values(cum).tobytes() == want.tobytes()


def _path_order_sum(dag, x, y):
    """``<x, y>`` summed left to right along the path ``x``, from 0."""
    total, u = 0.0, dag.source
    while u != dag.sink:
        e = next(e for e in dag.out_edges[u].tolist() if x[e])
        total += y[e]
        u = dag.edges[e][1]
    return total


def test_path_set_best_values_are_the_least_path_order_sums():
    sets = [cl.build_set("dag-layered:16:32"), cl.build_set("multitask:2,4,8")]
    sets += [cl.DagPathSet(random_layered_dag(RngStream(61, i), max_edges=14))
             for i in range(6)]
    for dset in sets:
        stream = cl.build_adversary("gaussian", dset, 60)(RngStream(62, 0))
        cum = np.cumsum([stream.loss(t) for t in range(1, 61)], axis=0)
        dag, paths = dset.dag, dset.enumerate_vertices()
        want = [min(_path_order_sum(dag, x, c) for x in paths) for c in cum]
        assert dset.best_values(cum).tobytes() == np.array(want).tobytes()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_dag_hindsight_does_not_depend_on_the_blas_kernel():
    # OpenBLAS's Haswell kernel sums a dot product in another order than
    # its AVX-512 one, so no hindsight value may call BLAS
    config = ("cl.ExperimentConfig('dag-layered:64:4096', ['hedge-dag'], "
              "'gaussian', horizon=512, trials=2, seed=5)")
    code = ("import sys\n"
            "import comblab as cl\n"
            f"ledgers = cl.run_experiment({config}).ledgers['hedge-dag']\n"
            "sys.stdout.buffer.write(b''.join(led.cum_best.tobytes() "
            "for led in ledgers))\n")
    src = str(pathlib.Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE="Haswell")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    ledgers = cl.run_experiment(eval(config)).ledgers["hedge-dag"]
    assert proc.stdout == b"".join(led.cum_best.tobytes() for led in ledgers)


# ---------------------------------------------------------------------------
# DAG validation and flows
# ---------------------------------------------------------------------------

def test_dag_validate_diamond_ok():
    assert diamond_dag().validate() == []


def test_dag_validate_isolated_vertex():
    dag = cl.Dag(5, [(0, 1), (0, 2), (1, 4), (2, 4)], 0, 4)
    defects = dag.validate()
    assert any('3' in d for d in defects)


def test_dag_validate_vertices_off_every_path():
    # 3 feeds the source but is fed by nothing; 4 hangs off the sink
    dag = cl.Dag(5, [(0, 1), (1, 2), (3, 0), (0, 2), (2, 4)], 0, 2)
    assert dag.validate() == ["vertex 3 unreachable from source",
                              "vertex 4 cannot reach sink"]


def test_dag_validate_cycle():
    dag = cl.Dag(4, [(0, 1), (1, 2), (2, 1), (1, 3)], 0, 3)
    defects = dag.validate()
    assert any('cycle' in d for d in defects)
    assert dag.topological_order() is None


def test_dag_validate_source_is_the_sink():
    assert cl.Dag(1, [], 0, 0).validate() == ["source is the sink"]
    assert chain_dag(2).validate() == []  # a single path stays valid


def test_flow_check_examples():
    d = diamond_dag()
    ok, res = cl.flow_check(d, np.full(4, 0.5))
    assert ok and res == 0.0
    ok, res = cl.flow_check(d, np.array([0.7, 0.7, 0.3, 0.3]))
    assert not ok and res == pytest.approx(0.4)
    ok, res = cl.flow_check(chain_dag(2), np.ones(2))
    assert ok


def test_flow_constraints_and_loads_match_the_vertex_loops():
    # In-test copies of the per-vertex loops that the incidence matrix
    # replaced: A must match bit for bit, loads and residuals in value.
    rng = RngStream(35, 0)
    for _ in range(20):
        dag = random_layered_dag(rng, max_edges=14, max_layers=4)
        in_edges = [[e for e, (_, head) in enumerate(dag.edges) if head == v]
                    for v in range(dag.n_vertices)]
        rows = [np.zeros(dag.n_edges)]
        rows[0][dag.out_edges[dag.source]] = 1.0
        for v in range(dag.n_vertices):
            if v not in (dag.source, dag.sink):
                row = np.zeros(dag.n_edges)
                row[in_edges[v]] += 1.0
                row[dag.out_edges[v]] -= 1.0
                rows.append(row)
        a_mat, b_vec, _ = dag.flow_system
        assert np.array(rows).tobytes() == a_mat.tobytes()
        assert b_vec.tolist() == [1.0] + [0.0] * (len(rows) - 1)
        x = rng.generator.random(dag.n_edges)
        loads = [1.0 if v == dag.sink else x[dag.out_edges[v]].sum()
                 for v in range(dag.n_vertices)]
        assert np.allclose(dag.vertex_loads(x), loads, rtol=0, atol=1e-15)
        res = max(abs(x[dag.out_edges[dag.source]].sum() - 1.0),
                  abs(x[in_edges[dag.sink]].sum() - 1.0),
                  *(abs(x[in_edges[v]].sum() - x[dag.out_edges[v]].sum())
                    for v in range(dag.n_vertices)
                    if v not in (dag.source, dag.sink)))
        assert cl.flow_check(dag, x)[1] == pytest.approx(res, abs=1e-15)


def test_dag_text_roundtrip(tmp_path):
    p = tmp_path / "g.dag"
    p.write_text("dag 4 4 0 3\n0 1\n0 2\n1 3\n2 3\n")
    dag = cl.load_dag(str(p))
    assert dag.n_vertices == 4 and dag.n_edges == 4
    assert dag.validate() == []
    assert dag.path_count() == 2


# ---------------------------------------------------------------------------
# level-synchronous semiring pass, against the topological-order loops it
# replaced
# ---------------------------------------------------------------------------

def _loop_extreme_path_weights(dag, y):
    lo = np.full(dag.n_vertices, np.inf)
    hi = np.full(dag.n_vertices, -np.inf)
    lo[dag.source] = hi[dag.source] = 0.0
    for u in dag.topological_order():
        if not np.isfinite(lo[u]):
            continue
        for e in dag.out_edges[u]:
            v = dag.edges[e][1]
            lo[v] = min(lo[v], lo[u] + y[e])
            hi[v] = max(hi[v], hi[u] + y[e])
    return lo, hi


def _loop_extreme_path(dag, y, mode):
    sign = 1.0 if mode == "min" else -1.0
    best = np.full(dag.n_vertices, np.inf)
    best[dag.sink] = 0.0
    for u in reversed(dag.topological_order()):
        if u == dag.sink:
            continue
        for e in dag.out_edges[u]:
            cand = sign * y[e] + best[dag.edges[e][1]]
            if cand < best[u]:
                best[u] = cand
    x = np.zeros(dag.n_edges)
    u = dag.source
    while u != dag.sink:
        for e in dag.out_edges[u]:
            v = dag.edges[e][1]
            if sign * y[e] + best[v] == best[u]:
                x[e] = 1.0
                u = v
                break
        else:
            e = min(dag.out_edges[u],
                    key=lambda e: abs(sign * y[e] + best[dag.edges[e][1]] - best[u]))
            x[e] = 1.0
            u = dag.edges[e][1]
    return x


def _skip_level_dag():
    """Edges that jump levels, a parallel pair, and edge indices out of
    topological order.  Vertex 5's in-edges come from depths 2 and 1, so a
    depth must be the maximum over all in-edges, and vertex 1's backward
    slot (level 4 - 1) comes after vertex 2's (level 4 - 2) though vertex 1
    also has an edge straight to the sink."""
    return cl.Dag(7, [(5, 6), (0, 1), (1, 6), (2, 5), (0, 4), (4, 5), (0, 6),
                      (2, 3), (3, 6), (0, 1), (1, 2)], 0, 6)


def _pass_test_dags():
    rng = RngStream(41, 0)
    dags = [random_layered_dag(rng, max_edges=30, max_layers=5, max_width=4)
            for _ in range(8)]
    return dags + [parallel_dag(4), _skip_level_dag()]


def _losses_with_ties(dag, gen):
    """Loss vectors whose small-integer values make many paths tie."""
    yield np.zeros(dag.n_edges)
    for _ in range(15):
        yield gen.integers(-2, 3, size=dag.n_edges).astype(float)
    for _ in range(5):
        yield gen.standard_normal(dag.n_edges)


def test_semiring_pass_min_max_match_loops_bit_for_bit():
    gen = RngStream(42, 0).generator
    # an edge into the source and one out of the sink lie on no s-t path
    off_path = cl.Dag(5, [(0, 1), (1, 2), (3, 0), (0, 2), (2, 4)], 0, 2)
    for dag in _pass_test_dags() + [off_path]:
        for y in _losses_with_ties(dag, gen):
            lo, hi = _loop_extreme_path_weights(dag, y)
            assert np.array_equal(dag.semiring_pass(y, np.minimum)[1], lo)
            assert np.array_equal(dag.semiring_pass(y, np.maximum)[1], hi)
            assert np.array_equal(dag.extreme_path(y),
                                  _loop_extreme_path(dag, y, "min"))
            assert np.array_equal(dag.extreme_path(-y),
                                  _loop_extreme_path(dag, y, "max"))


def test_semiring_pass_runs_columns_bit_for_bit():
    gen = RngStream(46, 0).generator
    for dag in _pass_test_dags():
        ys = np.array(list(_losses_with_ties(dag, gen)))
        for reduce in (np.minimum, np.maximum, np.logaddexp):
            backward, forward = dag.semiring_pass(ys.T, reduce)
            for k, y in enumerate(ys):
                one_back, one_forward = dag.semiring_pass(y, reduce)
                assert backward[:, k].tobytes() == one_back.tobytes()
                assert forward[:, k].tobytes() == one_forward.tobytes()


def test_forward_pass_is_the_forward_half_of_the_pass_bit_for_bit():
    gen = RngStream(47, 0).generator
    # an edge into the source and one out of the sink lie on no s-t path
    off_path = cl.Dag(6, [(4, 0), (0, 1), (1, 2), (0, 2), (2, 3), (1, 3),
                          (3, 5)], 0, 3)
    dags = _pass_test_dags() + [cl.MultitaskSet([2, 3, 4]).dag, off_path]
    for dag in dags:
        ys = np.array(list(_losses_with_ties(dag, gen)))
        for reduce in (np.minimum, np.maximum, np.logaddexp):
            for values in (ys[-1], ys.T):
                want = dag.semiring_pass(values, reduce)[1]
                got = dag.forward_pass(values, reduce)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _selection_values(dag, coord, gen, columns):
    """Edge values for a selection DAG's pass: select values of magnitude up
    to 1e3 (some at 1e-3 of that), a tenth of them -inf, and skip values
    +0 or -0.  ``columns`` None gives a 1-D vector, else ``(E, columns)``."""
    shape = (dag.n_edges,) if columns is None else (dag.n_edges, columns)
    values = gen.uniform(-1e3, 1e3, shape) * gen.choice([1e-3, 1.0], shape)
    values[gen.random(shape) < 0.1] = -np.inf
    skips = coord < 0
    values[skips] = gen.choice([0.0, -0.0], (skips.sum(),) + shape[1:])
    return values


@pytest.mark.parametrize("d, m", [(2, 1), (16, 4), (64, 8), (64, 32), (256, 16)])
def test_selection_dag_pass_equals_the_level_pass_bit_for_bit(d, m):
    gen = RngStream(50, d + m).generator
    dag, coord = mset_selection_dag(d, m)
    assert isinstance(dag, SelectionDag)
    for reduce in (np.logaddexp, np.minimum, np.maximum):
        for columns in (None, 5):
            for _ in range(3):
                values = _selection_values(dag, coord, gen, columns)
                got = dag.semiring_pass(values, reduce)
                want = cl.Dag.semiring_pass(dag, values, reduce)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_selection_dag_pass_with_a_nonzero_skip_takes_the_level_pass(monkeypatch):
    dag, coord = mset_selection_dag(16, 4)
    values = _selection_values(dag, coord, RngStream(51, 0).generator, None)
    values[np.flatnonzero(coord < 0)[3]] = 0.5
    want = cl.Dag.semiring_pass(dag, values, np.logaddexp)
    calls = []
    level_pass = cl.Dag.semiring_pass

    def counted(self, *args):
        calls.append(1)
        return level_pass(self, *args)

    monkeypatch.setattr(cl.Dag, "semiring_pass", counted)
    got = dag.semiring_pass(values, np.logaddexp)
    assert len(calls) == 1
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_extreme_paths_match_the_loop_row_by_row():
    gen = RngStream(49, 0).generator
    for dag in _pass_test_dags():
        rows = list(_losses_with_ties(dag, gen))
        for inf in (np.inf, -np.inf):  # one sign per row: no inf - inf
            for _ in range(3):
                y = gen.integers(-2, 3, size=dag.n_edges).astype(float)
                y[gen.random(dag.n_edges) < 0.3] = inf
                rows.append(y)
        for y in rows:
            for sign, mode in ((1.0, "min"), (-1.0, "max")):
                assert np.array_equal(dag.extreme_path(sign * y),
                                      _loop_extreme_path(dag, y, mode))


def test_extreme_path_rejects_a_nan_path_weight():
    # overflowed running sums: no out-edge's sum equals a NaN best weight
    with np.errstate(invalid="ignore"), \
            pytest.raises(cl.PreconditionError, match="NaN"):
        chain_dag(2).extreme_path(np.array([np.inf, -np.inf]))


def test_extreme_path_stops_at_a_dead_end():
    # every path weighs +inf, so the walk may take edge 0 into vertex 1,
    # which has no out-edge: it raises there instead of walking on
    dag = cl.Dag(3, [(0, 1), (0, 2)], 0, 2)
    with pytest.raises(cl.PreconditionError, match="vertex 1 has no path"):
        dag.extreme_path(np.array([0.0, np.inf]))


def test_extreme_path_ties_go_to_the_lowest_edge():
    dag = _skip_level_dag()
    # every path weighs 0, so each vertex leaves by its lowest edge:
    # 1 (0->1), then 2 (1->6)
    for zero in (np.zeros(dag.n_edges), -np.zeros(dag.n_edges)):
        assert np.flatnonzero(dag.extreme_path(zero)).tolist() == [1, 2]
    # with the short way penalised the path goes 0->1->2->5->6
    y = np.zeros(dag.n_edges)
    y[2] = 1.0
    assert np.flatnonzero(dag.extreme_path(y)).tolist() == [0, 1, 3, 10]


def _longest_hop_count(dag):
    """Relax every edge until no vertex's longest hop count grows."""
    hops = [0] * dag.n_vertices
    grown = True
    while grown:
        grown = False
        for u, v in dag.edges:
            if hops[u] + 1 > hops[v]:
                hops[v], grown = hops[u] + 1, True
    return max(hops)


def test_compiled_levels_hold_each_edge_once_per_direction():
    for dag in _pass_test_dags() + [mset_selection_dag(8, 3)[0],
                                    chain_dag(1200)]:
        position = {v: i for i, v in enumerate(dag.topological_order())}
        assert all(position[u] < position[v] for u, v in dag.edges)
        compiled, n = dag.compiled, dag.n_vertices
        assert len(compiled.levels) == _longest_hop_count(dag)
        final = {dag.sink, n + dag.source}
        placed = []
        for lo, hi, gather, starts, scatter in compiled.levels:
            assert set(gather.tolist()) <= final  # reads only finished slots
            slots = np.repeat(scatter, np.diff(np.append(starts, hi - lo)))
            edges = compiled.edge_order[lo:hi].tolist()
            order = list(zip(slots.tolist(), edges))
            assert order == sorted(order)  # by slot, then by edge index
            for slot, far, e in zip(slots.tolist(), gather.tolist(), edges):
                u, v = dag.edges[e]
                assert (slot, far) == ((u, v) if slot < n else (n + v, n + u))
                placed.append((slot >= n, e))
            final.update(scatter.tolist())
        assert sorted(placed) == [(fwd, e) for fwd in (False, True)
                                  for e in range(dag.n_edges)]


def _recursive_paths(dag):
    """Lowest-edge-first DFS by recursion: the walk ``enumerate_paths``
    replaced."""
    paths, stack = [], []

    def dfs(u):
        if u == dag.sink:
            x = np.zeros(dag.n_edges)
            x[stack] = 1.0
            paths.append(x)
            return
        for e in dag.out_edges[u]:
            stack.append(e)
            dfs(dag.edges[e][1])
            stack.pop()

    dfs(dag.source)
    return paths


def test_enumerate_paths_keeps_the_recursive_order():
    for dag in _pass_test_dags():
        got = [x.tolist() for x in dag.enumerate_paths()]
        assert got == [x.tolist() for x in _recursive_paths(dag)]


def test_weight_pushing_matches_explicit_hedge_on_pass_dags():
    rng = RngStream(43, 0)
    for dag in _pass_test_dags():
        dset = cl.DagPathSet(dag)
        fast, slow = cl.PathHedge(dset, 0.7), cl.ExplicitHedge(dset, 0.7)
        for _ in range(20):
            y = random_feasible_loss(dset, rng)
            assert np.max(np.abs(fast.step(y) - slow.step(y))) <= 1e-12


# ---------------------------------------------------------------------------
# best vertex
# ---------------------------------------------------------------------------

def test_best_vertex_zero_losses_lexicographic():
    v, val = cl.MSet(4, 2).best_vertex(np.zeros(4))
    assert v.tolist() == [1.0, 1.0, 0.0, 0.0] and val == 0.0
    v, _ = cl.MultitaskSet([2, 2]).best_vertex(np.zeros(4))
    assert v.tolist() == [1.0, 0.0, 1.0, 0.0]
    v, _ = cl.DagPathSet(diamond_dag()).best_vertex(np.zeros(4))
    assert v.tolist() == [1.0, 0.0, 1.0, 0.0]  # lowest-edge-first path


def test_best_vertex_mset_example():
    v, val = cl.MSet(4, 2).best_vertex(np.array([3.0, 1.0, 2.0, 0.0]))
    assert v.tolist() == [0.0, 1.0, 0.0, 1.0] and val == 1.0


def test_best_vertex_dag_example():
    d = diamond_dag()
    cum = np.array([0.7, -0.1, 0.7, -0.1])  # top 1.4, bottom -0.2
    v, val = cl.DagPathSet(d).best_vertex(cum)
    assert v.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert val == pytest.approx(-0.2)


def test_best_vertex_matches_enumeration():
    rng = RngStream(8, 3)
    gen = rng.generator
    for dset in (cl.MSet(8, 3), cl.MultitaskSet([3, 2, 2]),
                 cl.DagPathSet(diamond_dag()), hypercube_set(3)):
        mat = np.asarray(dset.enumerate_vertices())
        for _ in range(100):
            z = gen.standard_normal(dset.dimension)
            _, val = dset.best_vertex(z)
            assert val == pytest.approx(float(np.min(mat @ z)), abs=1e-12)

