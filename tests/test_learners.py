import functools
import math
import warnings

import numpy as np
import pytest

import comblab as cl
from comblab.instances import (chain_dag, diamond_dag, hypercube_set,
                               random_feasible_loss, random_layered_dag)
from comblab.domain import mset_selection_dag
from comblab.learners import weight_pushing_marginals
from comblab.proximal import (SUM_TOL, _omega_coords, flow_prox_newton,
                               mset_prox, mset_prox_kkt_residual,
                               sinkhorn_flow_projection)
from comblab.regularizers import (DilatedEntropy, NegativeEntropy,
                                  uniform_path_flow)
from comblab.sampling import RngStream, sample_path


# ---------------------------------------------------------------------------
# learning rates
# ---------------------------------------------------------------------------

def test_default_rate_examples():
    assert cl.default_learning_rate(cl.MSet(4, 2), 100) == pytest.approx(
        math.sqrt(math.log(6) / 100), abs=1e-12)
    dset = cl.DagPathSet(diamond_dag())
    assert cl.default_learning_rate(dset, 4) == pytest.approx(
        math.sqrt(math.log(2) / 4), abs=1e-12)
    with pytest.raises(cl.PreconditionError):
        cl.default_learning_rate(dset, 0)


def test_prescribed_rates():
    assert cl.mset_omd_rate(16, 4, 4096) == pytest.approx(
        math.sqrt(2 * (4 + math.log(4)) / (9 * 4096)))
    dset = cl.DagPathSet(diamond_dag())
    assert cl.dag_entropy_rate(dset, 100) == pytest.approx(
        math.sqrt(math.log(2) * math.log(4) / 100))


# ---------------------------------------------------------------------------
# Hedge
# ---------------------------------------------------------------------------

def test_hedge_first_round_uniform():
    for dset in (cl.MSet(6, 2), cl.MultitaskSet([2, 3]), hypercube_set(3),
                 cl.DagPathSet(diamond_dag())):
        learner = cl.make_hedge(dset, 0.5)
        policy = learner.propose()
        mat = np.asarray(dset.enumerate_vertices())
        assert np.allclose(policy, mat.mean(axis=0), atol=1e-12)


def test_hedge_two_experts_closed_form():
    learner = cl.ExplicitHedge(cl.ExplicitSet([[1, 0], [0, 1]]), 1.0)
    learner.step(np.array([1.0, 0.0]))
    p = learner.propose()
    assert p[0] == pytest.approx(math.exp(-1) / (1 + math.exp(-1)), abs=1e-12)


def test_dag_hedge_matches_explicit_on_diamond():
    dset = cl.DagPathSet(diamond_dag())
    fast, slow = cl.PathHedge(dset, 1.0), cl.ExplicitHedge(dset, 1.0)
    y = np.array([0.5, 0.0, 0.5, 0.0])  # top path penalised by 1 total
    fast.step(y)
    slow.step(y)
    assert fast.propose()[0] == pytest.approx(math.exp(-1) / (1 + math.exp(-1)),
                                              abs=1e-12)
    assert np.max(np.abs(fast.propose() - slow.propose())) <= 1e-12


def test_dag_hedge_matches_explicit_random():
    rng = RngStream(21, 0)
    for _ in range(6):
        dag = random_layered_dag(rng, max_edges=14, max_paths=50)
        dset = cl.DagPathSet(dag)
        fast, slow = cl.PathHedge(dset, 0.6), cl.ExplicitHedge(dset, 0.6)
        for _ in range(50):
            y = random_feasible_loss(dset, rng)
            assert np.max(np.abs(fast.step(y) - slow.step(y))) <= 1e-12


def test_mset_hedge_matches_explicit():
    rng = RngStream(22, 0)
    dset = cl.MSet(7, 3)
    fast, slow = cl.PathHedge(dset, 0.8), cl.ExplicitHedge(dset, 0.8)
    for _ in range(60):
        y = random_feasible_loss(dset, rng)
        assert np.max(np.abs(fast.step(y) - slow.step(y))) <= 1e-12


def test_mset_hedge_no_overflow_at_large_eta_t():
    dset = cl.MSet(12, 3)
    learner = cl.PathHedge(dset, 5.0)
    y = np.zeros(12)
    y[0] = 1.0
    for _ in range(500):
        learner.step(y)
    p = learner.propose()
    assert np.all(np.isfinite(p)) and p[0] <= 1e-10
    assert p.sum() == pytest.approx(3.0, abs=1e-9)


def _loop_weight_pushing(dag, log_w):
    """Per-vertex, per-edge weight pushing: the loops the level-synchronous
    pass replaced."""
    order = dag.topological_order()
    log_z = np.full(dag.n_vertices, -np.inf)
    log_z[dag.sink] = 0.0
    for v in reversed(order):
        if v == dag.sink:
            continue
        acc = -np.inf
        for e in dag.out_edges[v]:
            val = log_w[e] + log_z[dag.edges[e][1]]
            if val > acc:
                acc, val = val, acc
            if val > -np.inf:
                acc = acc + np.log1p(np.exp(val - acc))
        log_z[v] = acc
    log_f = np.full(dag.n_vertices, -np.inf)
    log_f[dag.source] = 0.0
    for v in order:
        if v == dag.source:
            continue
        acc = -np.inf
        for e in (e for e, (_, head) in enumerate(dag.edges) if head == v):
            val = log_f[dag.edges[e][0]] + log_w[e]
            if val > acc:
                acc, val = val, acc
            if val > -np.inf:
                acc = acc + np.log1p(np.exp(val - acc))
        log_f[v] = acc
    return np.array([np.exp(log_f[u] + log_w[e] + log_z[v] - log_z[dag.source])
                     for e, (u, v) in enumerate(dag.edges)])


def test_mset_hedge_matches_loop_weight_pushing_under_attack():
    d, m, horizon = 64, 8, 200
    eta = 2.0 * math.sqrt(m * math.log(d / m) / horizon)
    learner = cl.PathHedge(cl.MSet(d, m), eta)
    dag, coord = mset_selection_dag(d, m)
    select = coord >= 0
    killer = cl.HedgeKillerStream(d, m, horizon, eta)
    for t in range(1, horizon + 1):
        marg = _loop_weight_pushing(dag, -eta * learner.cum_loss)
        want = np.bincount(coord[select], weights=marg[select], minlength=d)
        assert np.max(np.abs(learner.step(killer.loss(t)) - want)) <= 1e-12


def test_sampled_mset_hedge_pushes_weights_once_per_round(monkeypatch):
    import comblab.learners as ln

    calls = []

    def counted(dag, log_weights):
        calls.append(1)
        return weight_pushing_marginals(dag, log_weights)

    monkeypatch.setattr(ln, "weight_pushing_marginals", counted)
    cfg = cl.ExperimentConfig("mset:8:2", ["hedge"], "mset-lb", horizon=100,
                              mode="sampled")
    cl.run_experiment(cfg)
    assert len(calls) == 100


@pytest.mark.parametrize("mode", ["expected", "sampled"])
def test_mset_hedge_csv_is_that_of_the_level_pass(monkeypatch, mode):
    from comblab.domain import SelectionDag
    from comblab.properties import csv_text

    cfg = cl.ExperimentConfig("mset:64:8", ["hedge"], "hedge-killer",
                              horizon=48, trials=2, seed=15, mode=mode)
    fast = csv_text(cl.run_experiment(cfg)).encode()
    monkeypatch.setattr(SelectionDag, "semiring_pass", cl.Dag.semiring_pass)
    same = csv_text(cl.run_experiment(cfg)).encode() == fast
    assert same  # not the strings: a diff of two ledgers takes minutes


def test_mset_hedge_samples_from_the_round_marginals():
    rng = RngStream(24, 0)
    dset = cl.MSet(8, 2)
    learner = cl.PathHedge(dset, 0.9)
    dag, coord = mset_selection_dag(8, 2)
    for t in range(60):
        learner.propose()
        got = learner.sample(RngStream(24, 1, t))
        marg = weight_pushing_marginals(dag, -0.9 * learner.cum_loss)
        path = sample_path(dag, marg, RngStream(24, 1, t))
        want = np.zeros(8)
        want[coord[(path > 0) & (coord >= 0)]] = 1.0
        assert np.array_equal(got, want)
        learner.absorb(random_feasible_loss(dset, rng))


def test_multitask_hedge_factorizes():
    rng = RngStream(23, 0)
    dset = cl.MultitaskSet([2, 3, 2])
    block, flat = cl.PathHedge(dset, 0.5), cl.ExplicitHedge(dset, 0.5)
    for _ in range(50):
        y = random_feasible_loss(dset, rng)
        assert np.max(np.abs(block.step(y) - flat.step(y))) <= 1e-12


def test_hedge_rejects_infeasible_loss():
    learner = cl.make_hedge(cl.MSet(4, 2), 0.5)
    with pytest.raises(cl.ValidationError):
        learner.step(np.array([1.0, 1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# m-set mirror descent
# ---------------------------------------------------------------------------

def test_omd_zero_loss_is_identity():
    learner = cl.MSetOmd(cl.MSet(4, 2), 0.1)
    learner.step(np.zeros(4))
    assert np.allclose(learner.iterate, 0.5, atol=1e-15)


def test_omd_mset_example_step():
    learner = cl.MSetOmd(cl.MSet(4, 2), 0.1)
    learner.step(np.array([0.5, 0.0, 0.0, 0.0]))
    it = learner.iterate
    assert it[0] < 0.5
    assert it[1] == pytest.approx(it[2], abs=1e-14)
    assert it[2] == pytest.approx(it[3], abs=1e-14)
    assert it.sum() == pytest.approx(2.0, abs=1e-12)
    stat, card = learner.kkt_residual()
    assert stat <= 1e-9 and card <= 1e-12


def test_prox_newton_vs_bisection():
    rng = RngStream(24, 0)
    dset = cl.MSet(10, 4)
    x = np.full(10, 0.4)
    for _ in range(50):
        y = random_feasible_loss(dset, rng)
        step = 0.2 * y
        a, lam, _ = mset_prox(x, step, 4)
        c, _, _ = mset_prox(x, step, 4, method="bisect")
        stat, card = mset_prox_kkt_residual(a, x, step, 4, lam)
        assert stat <= 1e-9 and card <= 1e-12
        assert np.max(np.abs(a - c)) <= 1e-10
        x = a


def test_prox_handles_box_cap():
    # A steep pull toward one coordinate must clip at 1 and keep the sum.
    x = np.full(4, 0.5)
    step = np.array([-8.0, 0.0, 0.0, 0.0])
    out, lam, _ = mset_prox(x, step, 2)
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out.sum() == pytest.approx(2.0, abs=1e-12)
    assert np.all(out > 0)


def _prox_edge_cases(d, m):
    """``(x_old, step)`` at the edges of the m-set step's range: ``x_old``
    uniform, or with coordinates at 1 and at 1e-200; steps of 50 pushing
    and pulling, and random ones up to 50.  Every solution coordinate must
    be a normal float, or ``ln x`` has no bits left to measure a residual
    with: so at m > 1 the 1e-200 coordinates are only pulled up and the
    ones at 1 only pushed down (see the spread check below)."""
    gen = RngStream(52, d + m).generator
    edge = np.full(d, 1e-200)
    edge[::d // m] = 1.0
    cases = []
    for x_old in (np.full(d, m / d), edge):
        toward = np.where(x_old < m / d, -50.0, 50.0)  # pulls toward the mean
        cases += [(x_old, np.zeros(d)), (x_old, toward),
                  (x_old, 50.0 * gen.random(d) * np.sign(toward))]
        if m == 1 or x_old[0] == m / d:  # both ways, and at random
            cases += [(x_old, -toward)]
            cases += [(x_old, gen.uniform(-50.0, 50.0, d)) for _ in range(3)]
    return cases


@pytest.mark.parametrize("d, m", [(2, 1), (8, 1), (32, 1), (8, 4)])
def test_prox_at_the_edges_of_its_range(d, m):
    for x_old, step in _prox_edge_cases(d, m):
        a = 2.0 * m * x_old + np.log(x_old) - m * step
        assert np.ptp(a) < 600.0  # so every solution coordinate is normal
        x, lam, _ = mset_prox(x_old, step, m)
        stat, card = mset_prox_kkt_residual(x, x_old, step, m, lam)
        assert stat <= 1e-11 and card <= SUM_TOL
        assert np.all(x >= np.finfo(float).tiny) and np.all(x <= 1.0)
        ref, _, _ = mset_prox(x_old, step, m, method="bisect")
        assert np.max(np.abs(x - ref)) <= 1e-10


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
def test_prox_keeps_underflowed_coordinates_at_zero():
    # steps of 50 at m = 16 send half the coordinates below the float range;
    # the next step starts from those zeros, which stay 0 (ln 0 = -inf)
    step = np.tile([50.0, -50.0], 16)
    x, lam, _ = mset_prox(np.full(32, 0.5), step, 16)
    assert np.count_nonzero(x == 0.0) == 16
    for x_old, lam_init in ((x, lam), (x, 0.0)):
        y, _, _ = mset_prox(x_old, -step, 16, lam_init=lam_init)
        ref, _, _ = mset_prox(x_old, -step, 16, method="bisect")
        assert np.array_equal(y == 0.0, x == 0.0)
        assert abs(y.sum() - 16) <= SUM_TOL
        assert np.max(np.abs(y - ref)) <= 1e-10


def test_prox_failure_carries_its_residual_and_step_count(monkeypatch):
    import comblab.proximal as px

    monkeypatch.setattr(px, "MAX_OUTER", 1)
    x_old, step = np.full(8, 0.5), np.linspace(-50.0, 30.0, 8)
    with pytest.raises(cl.SolverFailure) as info:
        mset_prox(x_old, step, 4)
    assert info.value.iterations == 1 and info.value.residual > SUM_TOL


def test_prox_kkt_residual_reads_the_cap_multiplier():
    # the cap's multiplier mu >= 0 makes the residual -mu at a capped
    # coordinate: a negative one is slack, a positive one a violation
    x_old, step = np.full(4, 0.5), np.array([-8.0, 0.0, 0.0, 0.0])
    x, lam, _ = mset_prox(x_old, step, 2)
    assert x[0] == 1.0
    assert mset_prox_kkt_residual(x, x_old, step, 2, lam)[0] <= 1e-12
    assert mset_prox_kkt_residual(x, x_old, -step, 2, lam)[0] >= 1.0


def _coords_by_newton(t, m):
    """The iterative coordinate solve the closed form replaced: Newton on
    2 e^u + (u + 1)/m = t in u = ln x, capped at u = 0."""
    u = np.zeros_like(t)
    for _ in range(100):
        eu = np.exp(u)
        h = 2.0 * eu + (u + 1.0) / m - t
        if np.all(np.abs(h) <= 1e-14):
            break
        u = np.minimum(u - h / (2.0 * eu + 1.0 / m), 0.0)
    return np.exp(u)


@pytest.mark.parametrize("m", [1, 4, 8, 64])
def test_prox_coordinate_solve_closed_form(m):
    # t runs from where x underflows to 0 (ln x < -745) up to the cap g(1).
    t = np.linspace(-760.0 / m, 2.0 + 1.0 / m, 4001)
    x = _omega_coords(m * t + (np.log(2.0 * m) - 1.0), m)[0]
    assert x[0] == 0.0 and x[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(x <= 1.0)
    # Residual of 2x + (ln x + 1)/m = t wherever x is a normal float (a
    # subnormal x has too few bits to resolve ln x); the tolerance adds one
    # ulp of t, the floor that a double-precision root can reach at |t| ~ 700.
    normal = x >= np.finfo(float).tiny
    xn, tn = x[normal], t[normal]
    residual = np.abs(2.0 * xn + (np.log(xn) + 1.0) / m - tn)
    assert np.all(residual <= 1e-14 + np.spacing(np.abs(tn)))
    assert np.max(np.abs(x - _coords_by_newton(t, m))) <= 1e-14


def test_omd_iterates_stay_interior_under_attack():
    rng = RngStream(25, 0)
    dset = cl.MSet(8, 2)
    learner = cl.MSetOmd(dset, 0.4)
    killer = cl.HedgeKillerStream(8, 2, 400, 0.4)
    for t in range(1, 401):
        learner.step(killer.loss(t))
        assert learner.iterate.min() > 0
        assert abs(learner.iterate.sum() - 2) <= 1e-9


def _x_based_prox(x_old, step, m, lam):
    """The m-set step as it was before ``MSetOmd`` carried ``u``: ``a``
    formed from ``ln x_old`` each call, ``u`` capped in every iteration and
    the derivatives summed over the uncapped coordinates only."""
    two_m, log_two_m = 2.0 * m, math.log(2.0 * m)
    a = two_m * x_old + np.log(x_old) - m * step + log_two_m
    u_cap = two_m + log_two_m
    u_mean = two_m * m / a.size + math.log(two_m * m / a.size)
    lam_min, lam_max = (a.min() - u_mean) / m - 1.0, (a.max() - u_mean) / m + 1.0
    lo = hi = None
    for _ in range(500):
        u = np.minimum(a - m * lam, u_cap)
        x, w = _omega_coords(u, m)
        s = float(np.add.reduce(x)) - m
        if abs(s) <= SUM_TOL:
            return x, lam
        lo, hi = (lam, hi) if s > 0 else (lo, lam)
        free = w[u < u_cap]
        share = free / (1.0 + free)
        slope = -0.5 * float(np.add.reduce(share))
        bracketed = lo is not None and hi is not None
        if slope < 0.0:
            curve = 0.5 * m * float(np.add.reduce(share / (1.0 + free) ** 2))
            denom = 2.0 * slope * slope - s * curve
            cand = (lam - 2.0 * s * slope / denom if denom > 0.0
                    else lam - s / slope)
        elif bracketed:
            cand = 0.5 * (lo + hi)
        else:
            cand = lam_max if s > 0 else lam_min
        cand = min(max(cand, lam_min), lam_max)
        lam = 0.5 * (lo + hi) if bracketed and not lo < cand < hi else cand
    raise AssertionError("the reference step did not converge")


@pytest.mark.parametrize("set_spec", ["mset:16:4", "mset:32:8", "mset:64:8"])
@pytest.mark.parametrize("adversary",
                         ["universal", "mset-lb", "hedge-killer", "gaussian"])
def test_omd_policies_are_those_of_the_x_based_step(set_spec, adversary):
    # Stepping from the carried u instead of from ln x moves the policies
    # by rounding only.
    horizon = 160
    dset = cl.build_set(set_spec)
    learner = cl.build_learner("omd-mset", dset, horizon)
    stream = cl.build_adversary(adversary, dset, horizon, learner.eta)(
        RngStream(27, 0, 0))
    x, lam = learner.iterate.copy(), 0.0
    for t in range(1, horizon + 1):
        assert np.max(np.abs(learner.propose() - x)) <= 1e-12
        y = stream.loss(t)
        learner.absorb(y)
        x, lam = _x_based_prox(x, learner.eta * y, dset.m, lam)


def test_omd_brings_underflowed_coordinates_back():
    # Eight steps of +-50 at m = 16 send the even-indexed coordinates below
    # the float range; steps the other way then bring every one of them
    # back, up to the cap.  From ln x, ln 0 = -inf would hold them at 0
    # (test_prox_keeps_underflowed_coordinates_at_zero).
    learner = cl.MSetOmd(cl.MSet(32, 16), 50.0)
    y = np.tile([1.0, -1.0], 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(8):
            learner.absorb(y)
        zeroed = learner.iterate == 0.0
        assert np.count_nonzero(zeroed) == 16
        learner.absorb(-y)
        assert np.all(learner.iterate[zeroed] > 0.0)
        for _ in range(39):
            learner.absorb(-y)
    assert np.all(learner.iterate[zeroed] == 1.0)
    assert abs(learner.iterate.sum() - 16) <= SUM_TOL


# ---------------------------------------------------------------------------
# dilated-entropy mirror descent on DAGs
# ---------------------------------------------------------------------------

def test_dilated_fast_path_equals_hedge_on_diamond():
    dag = diamond_dag()
    dset = cl.DagPathSet(dag)
    omd = cl.build_learner("omd-dilated:eta=1.0", dset, 5)
    hedge = cl.PathHedge(dset, 1.0)
    y = np.array([0.5, 0.0, 0.5, 0.0])
    for _ in range(5):
        assert np.max(np.abs(omd.step(y) - hedge.step(y))) == 0.0


def test_dilated_numeric_matches_fast_path():
    rng = RngStream(26, 0)
    dag = diamond_dag()
    dset = cl.DagPathSet(dag)
    numeric = cl.DilatedOmd(dset, 1.0)
    fast = cl.build_learner("omd-dilated:eta=1.0", dset, 25)
    for _ in range(25):
        y = random_feasible_loss(dset, rng)
        gap = np.max(np.abs(numeric.step(y) - fast.step(y)))
        assert gap <= 1e-9


# ---------------------------------------------------------------------------
# shifted-loss entropy learner
# ---------------------------------------------------------------------------

def test_dilated_omd_builds_its_kkt_system_once(monkeypatch):
    # The constraint system and its least-squares multiplier operator
    # pinv(A^T), the KKT template and the Hessian's same-star pattern are
    # built once per DAG, not once per proximal step.
    calls = {"pinv": 0, "lstsq": 0, "kkt_template": 0, "same_star": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    template = functools.cached_property(
        counting("kkt_template", cl.Dag.kkt_template.func))
    template.__set_name__(cl.Dag, "kkt_template")
    monkeypatch.setattr(cl.Dag, "kkt_template", template)
    # DilatedEntropy builds its pattern in __init__ and nowhere else
    monkeypatch.setattr(DilatedEntropy, "__init__",
                        counting("same_star", DilatedEntropy.__init__))
    dset = cl.build_set("dag-layered:16:32")
    learner = cl.DilatedOmd(dset, 0.3)
    pattern = learner.reg._same_star
    stream = cl.GaussianFeasibleStream(dset, 10, RngStream(42, 0))
    for t in range(1, 11):
        learner.step(stream.loss(t))
    assert calls == {"pinv": 1, "lstsq": 0, "kkt_template": 1, "same_star": 1}
    assert learner.reg._same_star is pattern and not pattern.flags.writeable
    assert not dset.dag.kkt_template.flags.writeable


def test_dilated_omd_reuses_the_solver_gradient(monkeypatch):
    # Each step starts from the gradient the previous solve ended on, so
    # every gradient of a step is one of the solver's iterations; the
    # iterates equal those of evaluating it afresh.
    import comblab.learners as ln
    dset = cl.build_set("dag-layered:16:32")
    learner = cl.DilatedOmd(dset, 0.3)
    reg, x = learner.reg, learner.iterate
    stream = cl.GaussianFeasibleStream(dset, 10, RngStream(42, 0))
    losses = [stream.loss(t) for t in range(1, 11)]
    grads, solver_grads = [], []
    grad = type(reg).grad
    monkeypatch.setattr(type(reg), "grad",
                        lambda self, pt: grads.append(1) or grad(self, pt))

    def solve(*args):
        point, info = flow_prox_newton(*args)
        solver_grads.append(info["iterations"] + 1)
        return point, info

    monkeypatch.setattr(ln, "flow_prox_newton", solve)
    for y in losses:
        learner.step(y)
    assert len(grads) == sum(solver_grads)
    monkeypatch.undo()
    for y in losses:
        x, _ = flow_prox_newton(dset.dag, reg, x, 0.3 * y - reg.grad(x))
    assert np.array_equal(learner.iterate, x)


def test_shift_losses_zero():
    shifted, alpha = cl.shift_losses(diamond_dag(), np.zeros(4))
    assert np.allclose(shifted, 0.0) and alpha == 0.0


def test_shift_losses_single_path_telescopes():
    dag = chain_dag(4)
    rng = RngStream(27, 0)
    y = rng.generator.uniform(-0.2, 0.2, size=4)
    shifted, alpha = cl.shift_losses(dag, y)
    assert np.max(np.abs(shifted)) <= 1e-12
    assert alpha == pytest.approx(-float(y.sum()), abs=1e-12)


def test_shift_losses_diamond_example():
    dag = diamond_dag()
    y = np.array([0.5, -0.5, 0.5, -0.5])  # top path weight 1, bottom -1
    shifted, alpha = cl.shift_losses(dag, y)
    assert shifted[1] == 0.0 and shifted[3] == 0.0
    assert shifted[0] + shifted[2] == pytest.approx(2.0)
    assert alpha == pytest.approx(1.0)
    for path in dag.enumerate_paths():
        assert path @ (shifted ** 2) <= 4.0 + 1e-9


def test_entropy_omd_zero_loss_fixed_point():
    dset = cl.DagPathSet(diamond_dag())
    learner = cl.EntropyDagOmd(dset, 1.0)
    before = learner.iterate.copy()
    learner.step(np.zeros(4))
    assert np.max(np.abs(learner.iterate - before)) <= 1e-9


def test_entropy_omd_single_path_pinned():
    dset = cl.DagPathSet(chain_dag(3))
    learner = cl.EntropyDagOmd(dset, 0.9)
    for t in range(5):
        learner.step(np.array([0.2, -0.1, 0.1]))
        assert np.allclose(learner.iterate, 1.0, atol=1e-9)


def test_entropy_omd_moves_away_from_loss():
    dag = diamond_dag()
    dset = cl.DagPathSet(dag)
    learner = cl.EntropyDagOmd(dset, 1.0)
    learner.step(np.array([0.5, 0.0, 0.5, 0.0]))
    assert learner.iterate[0] < 0.5 < learner.iterate[1]
    ok, res = cl.flow_check(dag, learner.iterate)
    assert res <= 1e-9


def test_entropy_omd_steps_past_an_underflowed_flow_without_warning():
    # At eta = 50 the losing edge's flow underflows to 0 within 20 rounds;
    # its log is -inf, a zero flow, and must not warn.
    dag = diamond_dag()
    learner = cl.EntropyDagOmd(cl.DagPathSet(dag), 50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(30):
            learner.step(np.array([0.5, 0.0, 0.5, 0.0]))
    assert learner.iterate[0] == 0.0
    assert cl.flow_check(dag, learner.iterate)[1] <= 1e-9


def test_entropy_omd_brings_an_underflowed_flow_back():
    # 30 rounds against the top path at eta = 50 underflow the flow of its
    # first edge to 0; 30 rounds against the bottom path then bring every
    # edge back to 1/2.  The learner steps from the log-iterate that the
    # projection returns, where log 0 = -inf would hold that edge at 0.
    dag = diamond_dag()
    learner = cl.EntropyDagOmd(cl.DagPathSet(dag), 50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(30):
            learner.step(np.array([0.5, 0.0, 0.5, 0.0]))
        assert learner.iterate[0] == 0.0
        for _ in range(30):
            learner.step(np.array([0.0, 0.5, 0.0, 0.5]))
    assert np.max(np.abs(learner.iterate - 0.5)) <= 1e-12
    assert np.array_equal(np.exp(learner.log_iterate), learner.iterate)


def test_entropy_omd_matches_kkt_oracle():
    # The learner's steps, each projection solved by the KKT Newton oracle.
    rng = RngStream(28, 0)
    for _ in range(3):
        dag = random_layered_dag(rng, max_edges=12)
        dset = cl.DagPathSet(dag)
        fast = cl.EntropyDagOmd(dset, 0.8)
        oracle, linear = uniform_path_flow(dag), np.zeros(dag.n_edges)
        for _ in range(10):
            oracle, _ = flow_prox_newton(dag, NegativeEntropy(), oracle, linear)
            y = random_feasible_loss(dset, rng)
            gap = np.max(np.abs(fast.step(y) - oracle))
            assert gap <= 1e-8
            linear = 0.8 * cl.shift_losses(dag, y)[0] - np.log(oracle)


def test_entropy_projection_routes_around_a_dead_vertex():
    # Weights underflowed to zero on every edge at vertex 2: the projection
    # is that of the graph without it.
    dag = cl.Dag(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (1, 3)],
                 0, 4)
    log_w = np.array([0.3, -np.inf, -1.0, 0.5, -np.inf, 0.2, -0.4])
    x, _ = sinkhorn_flow_projection(dag, log_w)
    alive = cl.Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], 0, 3)
    ref, _ = sinkhorn_flow_projection(alive, log_w[[0, 2, 3, 5, 6]])
    assert x[1] == x[4] == 0.0
    assert np.max(np.abs(x[[0, 2, 3, 5, 6]] - ref)) <= 1e-9


def test_entropy_projection_meets_its_dual_conditions():
    # x_e = w_e exp(nu_tail - nu_head) for some potentials nu: the log
    # ratio lies in the row space of the incidence matrix.
    rng = RngStream(30, 0)
    cases = [(random_layered_dag(rng, max_edges=14, max_layers=4), None)
             for _ in range(5)]
    # weights of an entropy-learner step at eta = 30: Newton from nu = 0
    # stalls on them (its system is singular to working precision)
    cases.append((cl.Dag(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4),
                             (4, 5)], 0, 5),
                  np.array([-42.92, -44.98, 0.0, -93.36, -83.79, -49.51, 0.0])))
    for dag, log_w in cases:
        if log_w is None:
            log_w = rng.generator.normal(size=dag.n_edges) * 3.0
        x, info = sinkhorn_flow_projection(dag, log_w)
        assert cl.flow_check(dag, x)[1] == info["residual"] <= 1e-10
        gap = np.log(x) - log_w
        inc = dag.incidence
        nu = np.linalg.lstsq(inc.T, gap, rcond=None)[0]
        assert np.max(np.abs(inc.T @ nu - gap)) <= 1e-9


# ---------------------------------------------------------------------------
# best in hindsight
# ---------------------------------------------------------------------------

def test_every_dag_learner_iterate_is_a_flow():
    # Integration invariant: each learner's policy passes the flow check
    # at every round of a random feasible stream.
    rng = RngStream(29, 0)
    dag = random_layered_dag(rng, max_edges=12)
    dset = cl.DagPathSet(dag)
    learners = [cl.PathHedge(dset, 0.5),
                cl.build_learner("omd-dilated:eta=0.5", dset, 20),
                cl.DilatedOmd(dset, 0.5),
                cl.EntropyDagOmd(dset, 0.5)]
    for _ in range(20):
        y = random_feasible_loss(dset, rng)
        for learner in learners:
            policy = learner.step(y)
            _, res = cl.flow_check(dag, policy)
            assert res <= 1e-9
            assert policy.min() > 0  # interiority

