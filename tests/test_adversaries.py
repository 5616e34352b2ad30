import math
from math import comb

import numpy as np
import pytest

import comblab as cl
from comblab.instances import hypercube_set
from comblab.sampling import RngStream


# ---------------------------------------------------------------------------
# shattering
# ---------------------------------------------------------------------------

def test_hypercube_shatters_itself():
    sset = cl.find_shattered_set(hypercube_set(3), 3)
    assert sset.indices == (0, 1, 2)
    assert sset.verify()


def test_mset_shattering_example():
    sset = cl.find_shattered_set(cl.MSet(4, 2), 1)
    assert sset.indices == (0,)
    assert sset.witnesses[(0,)].tolist() == [0.0, 1.0, 1.0, 0.0]
    assert sset.witnesses[(1,)].tolist() == [1.0, 1.0, 0.0, 0.0]


def test_shattering_not_found():
    dset = cl.ExplicitSet([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(cl.ShatteringNotFound):
        cl.find_shattered_set(dset, 2)


def test_mset_closed_form_beyond_cap():
    sset = cl.find_shattered_set(cl.MSet(64, 8), 3)
    assert sset.indices == (0, 1, 2)
    assert sset.verify()
    with pytest.raises(cl.ShatteringNotFound):
        cl.find_shattered_set(cl.MSet(64, 8), 9)


def test_universal_shattering_size_formula():
    # log2(16)/log2(2e*4) < 1 for the 4-hypercube: the guarantee floors at 1
    assert cl.universal_shattering_size(hypercube_set(4)) == 1
    assert cl.universal_shattering_size(cl.MSet(32, 8)) == 3


# ---------------------------------------------------------------------------
# sign distributions
# ---------------------------------------------------------------------------

def test_dk_small_block_support():
    z = cl.dk_sample(2, RngStream(0, 0), size=200)
    assert set(np.unique(z[:, 0])) == {-1.0, 1.0}
    assert np.all(z[:, 1] == 0.0)


def test_dk_large_block_coordinates():
    z = cl.dk_sample(16, RngStream(0, 1), size=100_000)
    assert set(np.unique(z)) == {-1.0, 1.0}
    assert np.all(np.abs(z.mean(axis=0)) <= 4.0 / math.sqrt(100_000))
    # coordinates are independent fair signs: pairwise correlation is small
    corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert abs(corr) <= 0.02


def test_dk_zero_mean_every_size():
    for k in (2, 5, 8, 20):
        z = cl.dk_sample(k, RngStream(1, k), size=50_000)
        assert np.all(np.abs(z.mean(axis=0)) <= 5.0 / math.sqrt(50_000))
    with pytest.raises(cl.PreconditionError):
        cl.dk_sample(1, RngStream(0, 0))


# ---------------------------------------------------------------------------
# universal adversary
# ---------------------------------------------------------------------------

def test_universal_hypercube2_with_two_segments():
    cube = hypercube_set(2)
    stream = cl.UniversalStream(cube, 2, RngStream(3, 0),
                                shattered=cl.find_shattered_set(cube, 2))
    assert stream.segment_sizes == [1, 1]
    y1, y2 = stream.loss(1), stream.loss(2)
    assert abs(y1[0]) == 1.0 and y1[1] == 0.0
    assert abs(y2[1]) == 1.0 and y2[0] == 0.0


def test_universal_segment_apportionment():
    cube = hypercube_set(3)
    stream = cl.UniversalStream(cube, 10, RngStream(3, 1),
                                shattered=cl.find_shattered_set(cube, 3))
    assert stream.segment_sizes == [4, 3, 3]
    assert sum(stream.segment_sizes) == 10


def test_universal_losses_feasible_and_sparse():
    dset = cl.MSet(12, 3)
    stream = cl.UniversalStream(dset, 500, RngStream(3, 2))
    for t in range(1, 501):
        y = stream.loss(t)
        assert dset.validate_loss(y).ok
        assert np.count_nonzero(y) == 1


# ---------------------------------------------------------------------------
# m-set block adversary
# ---------------------------------------------------------------------------

def test_mset_lb_example_vector():
    stream = cl.MSetLbStream(4, 2, 10, RngStream(4, 0))
    y = stream.loss(1)
    assert set(np.abs(y[:2]).tolist()) == {0.5}
    assert np.all(y[2:] == 0.0)  # K=2 < threshold: only block 1 is active
    assert y[0] == y[1]


def test_mset_lb_feasibility_fuzz():
    dset = cl.MSet(12, 3)
    stream = cl.MSetLbStream(12, 3, 10_000, RngStream(4, 1))
    for t in range(1, 10_001):
        assert dset.validate_loss(stream.loss(t)).ok


def test_mset_lb_rejects_nondivisible():
    with pytest.raises(cl.PreconditionError):
        cl.MSetLbStream(10, 3, 5, RngStream(0, 0))


# ---------------------------------------------------------------------------
# hedge killer
# ---------------------------------------------------------------------------

def test_killer_zero_rate_uses_constant_branch():
    stream = cl.HedgeKillerStream(8, 2, 50, 1e-12)
    assert stream.small_branch
    y = stream.loss(7)
    assert np.allclose(y[:2], 0.5) and np.all(y[2:] == 0.0)


def test_killer_alternation_example():
    stream = cl.HedgeKillerStream(4, 2, 8, math.log(2))
    assert not stream.small_branch and stream.t0 == pytest.approx(1.0)
    col = [stream.loss(t)[0] for t in range(1, 7)]
    assert col == [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0]


def test_killer_fractional_round():
    eta = 0.9
    stream = cl.HedgeKillerStream(4, 2, 50, eta)
    t0 = math.log(2) / eta  # ~0.77, fractional
    y1 = stream.loss(1)
    assert y1[0] == pytest.approx(-(t0 - math.floor(t0)))
    cum = sum(stream.loss(t)[0] for t in range(1, math.ceil(t0) + 1))
    assert cum == pytest.approx(-t0)


def test_killer_every_vector_feasible():
    dset = cl.MSet(16, 4)
    for eta in (0.01, 0.2, 1.0, 5.0):
        stream = cl.HedgeKillerStream(16, 4, 200, eta)
        for t in range(1, 201):
            assert dset.validate_loss(stream.loss(t)).ok


def _killer_loss(d, m, t0, small_branch, t):
    """Round t's loss of the two-branch instance, by the per-round rule."""
    y = np.zeros(d)
    if small_branch:
        y[:m] = 1.0 / m
        return y
    lo, hi = math.floor(t0), math.ceil(t0)
    if t <= lo:
        y[0] = -1.0
    elif t == hi and hi != lo:
        y[0] = -(t0 - lo)
    elif t > hi:
        y[0] = 1.0 if (t - hi) % 2 == 1 else -1.0
    return y


def test_killer_losses_are_the_per_round_rule():
    seen = set()
    for d, m in ((12, 3), (8, 4), (64, 8)):
        depth = math.log(d / m)
        for horizon in (1, 2, 3, 5, 9, 64, 257):
            for eta in (1e-3, depth / 4, depth / 2.5, depth / 3.3, depth,
                        2 * depth, 100.0, math.inf):
                stream = cl.HedgeKillerStream(d, m, horizon, eta)
                small, t0 = stream.small_branch, stream.t0
                seen.add("small" if small
                         else "whole" if t0 == math.floor(t0) else "fractional")
                rows = np.array([_killer_loss(d, m, t0, small, t)
                                 for t in range(1, horizon + 1)])
                assert stream.losses.tobytes() == rows.tobytes(), (d, m, eta)
    assert seen == {"small", "whole", "fractional"}


# ---------------------------------------------------------------------------
# multitask phases
# ---------------------------------------------------------------------------

def test_multitask_phase_lengths():
    s1 = cl.MultitaskPhaseStream([2, 2], 100, RngStream(5, 0))
    assert s1.phase_lengths.tolist() == [50, 50]
    s2 = cl.MultitaskPhaseStream([2, 4], 90, RngStream(5, 1))
    assert s2.phase_lengths.tolist() == [30, 60]


def test_multitask_losses_feasible_one_block():
    dset = cl.MultitaskSet([2, 4])
    stream = cl.MultitaskPhaseStream([2, 4], 90, RngStream(5, 2))
    for t in range(1, 91):
        y = stream.loss(t)
        assert dset.validate_loss(y).ok
        b = stream.block_of_round[t - 1]
        other = slice(0, 2) if b == 1 else slice(2, 6)
        assert np.all(y[other] == 0.0)


# ---------------------------------------------------------------------------
# layered DAG instance
# ---------------------------------------------------------------------------

def test_layered_instance_example_shape():
    dag, factory, meta = cl.dag_hard_instance(16, 32, 64)
    assert meta["d0"] == 16 and meta["n0"] == 16
    assert meta["layers"] == 2 and meta["width"] == 4
    assert meta["edges"] == 16 and meta["paths"] == 16
    assert dag.validate() == []


def test_layered_budgets_always_hold():
    for d, n in ((16, 32), (24, 64), (40, 100), (64, 4096)):
        dag, _, meta = cl.dag_hard_instance(d, n, 32)
        assert meta["edges"] <= d
        assert meta["paths"] <= n


def _layers_by_scan(d, n_paths):
    """The layer count as a downward scan over every candidate finds it."""
    d0 = 8 * (d // 8)
    n0 = min(n_paths, 2 ** (d0 // 4))
    return next(m for m in range(d0 // 8, 0, -1)
                if d0 ** m <= n0 * (2 * m) ** m)


def test_layer_count_bisection_equals_the_scan():
    budgets = []
    for d in range(8, 160, 5):
        d0 = 8 * (d // 8)
        paths = {2 * d, 2 * d + 1, 2 ** (d0 // 4), 2 ** d}
        for m in range(1, d0 // 8 + 1):  # exact ties and one path off them
            if d0 % (2 * m) == 0:
                tie = (d0 // (2 * m)) ** m
                paths |= {tie - 1, tie, tie + 1}
        budgets += [(d, n) for n in sorted(paths) if 2 * d <= n <= 2 ** d]
    assert len(budgets) > 300
    for d, n_paths in budgets:
        assert cl.layered_dag(d, n_paths)[2]["layers"] == _layers_by_scan(
            d, n_paths), (d, n_paths)


def test_layered_rejects_bad_budgets():
    with pytest.raises(cl.PreconditionError):
        cl.dag_hard_instance(4, 10, 8)  # 2d < 16
    with pytest.raises(cl.PreconditionError):
        cl.dag_hard_instance(16, 8, 8)  # N < 2d


def test_layered_stream_phases_and_feasibility():
    dag, factory, meta = cl.dag_hard_instance(16, 32, 21)
    dset = cl.DagPathSet(dag)
    stream = factory(RngStream(6, 0))
    # 2 layers, T=21: phases of 10/10 then one residual zero round
    for t in range(1, 22):
        y = stream.loss(t)
        assert dset.validate_loss(y).ok
    assert np.all(stream.loss(21) == 0.0)
    assert np.any(stream.loss(1) != 0.0)


# ---------------------------------------------------------------------------
# bad-set mass
# ---------------------------------------------------------------------------

def test_bad_set_mass_uniform_equals_count_ratio():
    d, m = 40, 20
    frac = sum(comb(m, r) * comb(d - m, m - r) for r in range(0, m - m // 20 + 1)) \
        / comb(d, m)
    assert cl.bad_set_mass(d, m, 0.0) == pytest.approx(frac, rel=1e-12)


def test_bad_set_mass_small_m_is_one():
    # floor(m/20) = 0 for m < 20: every vertex is "bad"
    assert cl.bad_set_mass(12, 3, 0.7) == 1.0


def test_bad_set_mass_at_window_edge_stays_heavy():
    # worst in-window exponent for (40, 20): eta0 * t0 / m = ln(d/m)/20
    w = math.log(2) / 20
    assert cl.bad_set_mass(40, 20, w) >= 0.5


def test_bad_set_complement_bound():
    d, m = 40, 20
    frac_good = 1.0 - cl.bad_set_mass(d, m, 0.0)
    assert frac_good <= math.exp(-(m / 20) * math.log(d / m))


def test_bad_set_mass_cap():
    with pytest.raises(cl.CapExceeded):
        cl.bad_set_mass(20_000, 50, 0.0)


# ---------------------------------------------------------------------------
# apportionment
# ---------------------------------------------------------------------------

def test_largest_remainder_sums_and_proportions():
    out = cl.adversaries.largest_remainder(10, [1.0, 1.0, 1.0])
    assert out.sum() == 10 and sorted(out.tolist()) == [3, 3, 4]
    out = cl.adversaries.largest_remainder(90, [math.log(2), math.log(4)])
    assert out.tolist() == [30, 60]


# ---------------------------------------------------------------------------
# Gaussian feasible stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: hypercube_set(3), lambda: cl.build_set("mset:32:8"),
    lambda: cl.build_set("multitask:3,5,4"),
    lambda: cl.build_set("dag-layered:64:4096")],
    ids=["explicit", "mset", "multitask", "dag"])
def test_gaussian_stream_scales_rows_as_the_per_row_loop(make):
    # one batched dual norm scales every row, byte for byte as one
    # dual_norm call per row did
    dset = make()
    stream = cl.GaussianFeasibleStream(dset, 300, RngStream(47, 0), scale=0.7)
    raw = RngStream(47, 0).generator.standard_normal((300, dset.dimension))
    want = np.zeros_like(raw)
    for t in range(300):
        norm = dset.dual_norm(raw[t])
        if norm > 0:
            want[t] = 0.7 * raw[t] / norm
    got = np.array([stream.loss(t) for t in range(1, 301)])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# a stream is its array
# ---------------------------------------------------------------------------

_STREAM_CASES = [  # (adversary spec, set spec): every registered adversary
    ("universal", "mset:8:2"),
    ("universal", "multitask:2,3"),
    ("universal", "dag-layered:16:32"),
    ("mset-lb", "mset:8:2"),
    ("hedge-killer:eta=0.01", "mset:8:2"),
    ("hedge-killer:eta=1.5", "mset:8:2"),
    ("multitask-phases", "multitask:2,3,4"),
    ("dag-layered:16:32", "dag-layered:16:32"),
    ("constant:zero", "mset:8:2"),
    ("gaussian", "mset:8:2"),
    ("gaussian", "multitask:2,3"),
    ("gaussian", "dag-layered:16:32"),
]


def test_every_stream_serves_the_rows_of_its_array():
    registered = set(cl.harness.ADVERSARIES)
    assert {spec.split(":")[0] for spec, _ in _STREAM_CASES} == registered
    for spec, set_spec in _STREAM_CASES:
        dset = cl.build_set(set_spec)
        for horizon in (3, 7, 40):
            factory = cl.build_adversary(spec, dset, horizon, learner_eta=0.3)
            stream = factory(RngStream(4, 1, 0))
            assert stream.losses.shape == (horizon, dset.dimension)
            for t in range(1, horizon + 1):
                y = stream.loss(t)
                assert y.tobytes() == stream.losses[t - 1].tobytes(), (spec, t)
                y += 1.0  # a copy: the array keeps its row
                assert not np.array_equal(y, stream.losses[t - 1])
            for t in (0, horizon + 1):
                with pytest.raises(cl.PreconditionError, match="outside"):
                    stream.loss(t)
