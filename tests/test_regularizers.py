import math

import numpy as np
import pytest

import comblab as cl
from comblab.instances import (chain_dag, diamond_dag, random_interior_flow,
                               random_layered_dag, random_mset_interior)
from comblab.proximal import flow_prox_newton
from comblab.sampling import RngStream


def central_diff(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_mset_reg_value_at_vertex():
    phi = cl.MSetRegularizer(4, 2)
    assert phi.value(np.array([1.0, 1.0, 0.0, 0.0])) == 2.0


def test_dilated_value_single_path_zero():
    dag = chain_dag(3)
    psi = cl.DilatedEntropy(dag)
    assert psi.value(np.ones(3)) == pytest.approx(0.0, abs=1e-15)


def test_dilated_value_diamond_uniform():
    psi = cl.DilatedEntropy(diamond_dag())
    assert psi.value(np.full(4, 0.5)) == pytest.approx(-math.log(2), abs=1e-12)


def test_zero_coordinate_contributes_zero():
    phi = cl.MSetRegularizer(4, 2)
    assert np.isfinite(phi.value(np.array([1.0, 1.0, 0.0, 0.0])))
    neg = cl.NegativeEntropy()
    assert neg.value(np.zeros(3)) == 0.0


def test_value_domain_error_on_negative():
    with pytest.raises(cl.DomainError):
        cl.NegativeEntropy().value(np.array([0.5, -1e-6]))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_negative_entropy_grad_at_ones():
    assert np.allclose(cl.NegativeEntropy().grad(np.ones(5)), 0.0)


def test_mset_grad_uniform_value():
    phi = cl.MSetRegularizer(4, 2)
    g = phi.grad(np.full(4, 0.5))
    expected = 1.0 + (1.0 - math.log(2)) / 2.0
    assert np.allclose(g, expected)
    fd = central_diff(phi.value, np.full(4, 0.5))
    assert np.max(np.abs(g - fd)) <= 1e-6


def test_dilated_grad_matches_finite_differences():
    rng = RngStream(11, 0)
    dag = diamond_dag()
    psi = cl.DilatedEntropy(dag)
    x = random_interior_flow(dag, rng)
    g = psi.grad(x)
    fd = central_diff(psi.value, x)
    assert np.max(np.abs(g - fd)) <= 1e-6
    gu = psi.grad(np.full(4, 0.5))  # symmetric flow: per-layer equal entries
    assert gu[0] == pytest.approx(gu[1]) and gu[2] == pytest.approx(gu[3])


def test_grad_domain_error():
    with pytest.raises(cl.DomainError):
        cl.MSetRegularizer(4, 2).grad(np.array([0.5, 0.0, 0.5, 1.0]))


# ---------------------------------------------------------------------------
# Bregman divergence
# ---------------------------------------------------------------------------

def test_bregman_identity_zero():
    rng = RngStream(12, 0)
    mset = cl.MSet(6, 2)
    phi = cl.MSetRegularizer(6, 2)
    x = random_mset_interior(mset, rng)
    assert phi.bregman(x, x) == 0.0


def test_bregman_range_bound():
    for d in (4, 7, 10):
        for m in range(1, d // 2 + 1):
            phi = cl.MSetRegularizer(d, m)
            centre = phi.minimizer()
            bound = m + math.log(d / m) + 1e-9
            for v in cl.MSet(d, m).enumerate_vertices():
                assert phi.bregman(v, centre) <= bound


def test_bregman_negative_entropy_is_kl_on_simplex():
    # Uniform base point on a 4-simplex vs a corner-smoothed point: the
    # divergence must equal the direct KL sum (plus the cancelled linear
    # terms), evaluated independently.
    neg = cl.NegativeEntropy()
    w = np.full(4, 0.25)
    x = np.array([0.85, 0.05, 0.05, 0.05])
    direct = float(np.sum(x * np.log(x / w) - x + w))
    assert neg.bregman(x, w) == pytest.approx(direct, abs=1e-12)
    kl = float(np.sum(x * np.log(x / w)))
    assert neg.bregman(x, w) == pytest.approx(kl, abs=1e-12)  # sums match on the simplex


def test_bregman_nonnegative_random():
    rng = RngStream(13, 0)
    dag = diamond_dag()
    psi = cl.DilatedEntropy(dag)
    for _ in range(100):
        a = random_interior_flow(dag, rng)
        b = random_interior_flow(dag, rng)
        assert psi.bregman(a, b) >= 0.0


# ---------------------------------------------------------------------------
# Hessian quadratic forms
# ---------------------------------------------------------------------------

def test_quadform_zero_direction():
    phi = cl.MSetRegularizer(4, 2)
    assert phi.hessian_quadform(np.full(4, 0.5), np.zeros(4)) == 0.0


def test_quadform_mset_basis():
    phi = cl.MSetRegularizer(4, 2)
    val = phi.hessian_quadform(np.full(4, 0.5), np.array([1.0, 0, 0, 0]))
    assert val == pytest.approx(2.0 + 1.0 / (2 * 0.5))


def test_quadform_single_path_vanishes():
    psi = cl.DilatedEntropy(chain_dag(4))
    rng = RngStream(14, 0)
    gen = rng.generator
    x = np.full(4, 0.777)
    for _ in range(20):
        z = gen.standard_normal(4)
        assert abs(psi.hessian_quadform(x, z)) <= 1e-12


def test_quadform_matches_hessian_matrix():
    rng = RngStream(15, 0)
    gen = rng.generator
    dag = random_layered_dag(rng, max_edges=10)
    psi = cl.DilatedEntropy(dag)
    x = random_interior_flow(dag, rng)
    h = psi.hessian_matrix(x)
    for _ in range(30):
        z = gen.standard_normal(dag.n_edges)
        assert psi.hessian_quadform(x, z) == pytest.approx(z @ h @ z, rel=1e-10)


def test_quadform_matches_grad_finite_difference():
    # z' H z == directional derivative of z'grad along z.
    rng = RngStream(16, 0)
    gen = rng.generator
    dag = diamond_dag()
    psi = cl.DilatedEntropy(dag)
    x = random_interior_flow(dag, rng)
    h = 1e-6
    for _ in range(20):
        z = gen.standard_normal(4)
        fd = (psi.grad(x + h * z) - psi.grad(x - h * z)) / (2 * h)
        assert z @ fd == pytest.approx(psi.hessian_quadform(x, z), abs=1e-5)


class _StarLoopDilatedEntropy:
    """In-test copy of the per-out-star loops that ``DilatedEntropy``
    replaced with gathers by tail."""

    def __init__(self, dag):
        self.stars = [dag.out_edges[v] for v in range(dag.n_vertices)
                      if v != dag.sink and len(dag.out_edges[v])]

    @staticmethod
    def xlogx(a):
        return np.where(a > 0.0, a * np.log(np.maximum(a, 1e-300)), 0.0)

    def value(self, x):
        loads = np.array([x[idx].sum() for idx in self.stars])
        return float(self.xlogx(x).sum() - self.xlogx(loads).sum())

    def grad(self, x):
        g = np.log(x)
        for idx in self.stars:
            g[idx] -= np.log(x[idx].sum())
        return g

    def hessian_quadform(self, x, z):
        total = float(np.sum(z * z / x))
        for idx in self.stars:
            total -= float(z[idx].sum()) ** 2 / float(x[idx].sum())
        return total

    def hessian_matrix(self, x):
        h = np.diag(1.0 / x)
        for idx in self.stars:
            h[np.ix_(idx, idx)] -= 1.0 / x[idx].sum()
        return h


def test_dilated_entropy_matches_the_per_star_loops():
    # numpy sums fewer than 8 numbers in order, as the bincount of the
    # loads does, so on such stars the value, gradient and Hessian are the
    # loops' bits; 8-edge stars (dag-layered:64:4096) and the quadratic
    # form sum in another order and get a tolerance of 64 ulps of the sum
    # of absolute terms.
    rng = RngStream(43, 0)
    gen = rng.generator
    # an edge out of the sink lies in no out-star
    dags = [diamond_dag(), cl.Dag(4, [(0, 1), (0, 1), (1, 2), (2, 3)], 0, 2),
            cl.build_set("dag-layered:64:4096").dag]
    dags += [random_layered_dag(rng, max_edges=14, max_layers=4)
             for _ in range(10)]
    tol = 64 * np.finfo(float).eps
    kinds = set()
    for dag in dags:
        psi, loops = cl.DilatedEntropy(dag), _StarLoopDilatedEntropy(dag)
        in_order = max(len(idx) for idx in loops.stars) < 8
        kinds.add(in_order)
        for k in range(6):
            x = random_interior_flow(dag, rng)
            if k % 2 or x.min() <= 0.0:  # any positive vector, not only a flow
                x = gen.uniform(0.05, 3.0, dag.n_edges)
            z = gen.standard_normal(dag.n_edges)
            got = (psi.value(x), psi.grad(x), psi.hessian_matrix(x))
            want = (loops.value(x), loops.grad(x), loops.hessian_matrix(x))
            loads = np.array([x[idx].sum() for idx in loops.stars])
            scales = (np.abs(x * np.log(x)).sum()
                      + np.abs(loads * np.log(loads)).sum() + 1.0,
                      np.abs(want[1]) + 1.0, np.abs(want[2]) + 1.0)
            for g, w, scale in zip(got, want, scales):
                if in_order:
                    assert np.array_equal(g, w)
                else:
                    assert np.all(np.abs(g - w) <= tol * scale)
            gap = psi.hessian_quadform(x, z) - loops.hessian_quadform(x, z)
            assert abs(gap) <= tol * float(np.sum(z * z / x))
    assert kinds == {True, False}  # both kinds of star were checked


# ---------------------------------------------------------------------------
# entropy equality and minimizers
# ---------------------------------------------------------------------------

def test_path_entropy_equality_diamond():
    dag = diamond_dag()
    psi = cl.DilatedEntropy(dag)
    rng = RngStream(17, 0)
    for _ in range(50):
        x = random_interior_flow(dag, rng)
        assert psi.value(x) == pytest.approx(cl.path_entropy_sum(dag, x),
                                             abs=1e-12)


def test_uniform_path_flow_diamond():
    assert np.allclose(cl.uniform_path_flow(diamond_dag()), 0.5)


def test_dilated_minimizer_is_uniform_paths():
    rng = RngStream(18, 0)
    for _ in range(5):
        dag = random_layered_dag(rng, max_edges=12)
        psi = cl.DilatedEntropy(dag)
        uniform = cl.uniform_path_flow(dag)
        numeric, info = flow_prox_newton(dag, psi, uniform.copy(),
                                         np.zeros(dag.n_edges))
        assert abs(psi.value(uniform) - psi.value(numeric)) <= 1e-8
        assert psi.value(uniform) == pytest.approx(-math.log(dag.path_count()),
                                                   abs=1e-10)


def test_mset_minimizer_uniform():
    phi = cl.MSetRegularizer(10, 3)
    assert np.allclose(phi.minimizer(), 0.3)
