"""Registered invariant checks, runnable by scope with fixed seeds.

Each property draws its own randomness from a seeded stream, records the
worst margin it observed (positive margin = slack, negative = violation),
and never raises on failure: failures are data for the report.  A check
the acceptance criteria share takes its stream, counts and cases; its
registered ``prop_*`` passes the suite's own.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import adversaries as adv
from .domain import DagPathSet, MSet, MultitaskSet, flow_check, primal_norm_bruteforce
from .errors import ComblabError
from .harness import ExperimentConfig, csv_text, run_experiment
from .instances import (diamond_dag, hypercube_set, random_feasible_loss,
                        random_interior_flow, random_layered_dag,
                        random_mset_interior, random_span_direction)
from .learners import (EntropyDagOmd, ExplicitHedge, MSetOmd, PathHedge,
                       shift_losses)
from .proximal import flow_prox_newton
from .regularizers import (DilatedEntropy, MSetRegularizer, NegativeEntropy,
                           path_entropy_sum, uniform_path_flow)
from .sampling import RngStream, sample_explicit, sample_mset, sample_path


@dataclass
class PropertyResult:
    name: str
    scope: str
    samples: int
    worst_margin: float
    passed: bool
    detail: str = ""
    #: worst value of each checked quantity, by name (not printed)
    extremes: dict = field(default_factory=dict)

    def line(self):
        flag = "pass" if self.passed else "FAIL"
        return (f"[{flag}] {self.scope}/{self.name}: {self.samples} samples, "
                f"worst margin {self.worst_margin:.3e} {self.detail}")


def _result(name, scope, samples, margins, detail="", **extremes):
    worst = float(np.min(margins)) if len(margins) else float("inf")
    return PropertyResult(name, scope, samples, worst, worst >= 0.0, detail,
                          extremes)


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------

def _sets_for_norm_checks(rng):
    dag = random_layered_dag(rng, max_edges=12)
    explicit = hypercube_set(4)
    return [MSet(8, 3), MSet(12, 5), MultitaskSet([2, 3, 2]),
            DagPathSet(dag), explicit]


def prop_dual_norm_enumeration(seed):
    rng = RngStream(seed, 101)
    gen = rng.generator
    margins = []
    total = 0
    for dset in _sets_for_norm_checks(rng):
        mat = np.asarray(dset.enumerate_vertices())
        for _ in range(200):
            z = gen.standard_normal(dset.dimension)
            closed = dset.dual_norm(z)
            brute = float(np.max(np.abs(mat @ z)))
            margins.append(1e-12 - abs(closed - brute))
            total += 1
    return _result("dual_norm_matches_enumeration", "domain", total, margins)


def primal_norm_bound(rng, cases, z_scale):
    """Primal norm <= ``3|z|_inf + |z|_1/m + 1e-8`` on ``MSet(d, m)``, for
    ``reps`` normal ``z`` scaled by ``uniform(*z_scale)`` per (d, m, reps)."""
    gen = rng.generator
    margins = []
    for d, m, reps in cases:
        dset = MSet(d, m)
        for _ in range(reps):
            z = gen.standard_normal(d) * gen.uniform(*z_scale)
            lhs = primal_norm_bruteforce(dset, z)
            rhs = 3.0 * np.max(np.abs(z)) + np.sum(np.abs(z)) / m
            margins.append(rhs + 1e-8 - lhs)
    return _result("primal_norm_linf_l1_bound", "domain", len(margins),
                   margins)


def prop_primal_norm_bound(seed):
    return primal_norm_bound(RngStream(seed, 102),
                             ((6, 2, 67), (9, 3, 67), (12, 4, 67)), (0.3, 3.0))


def prop_norm_duality(seed):
    rng = RngStream(seed, 103)
    gen = rng.generator
    dset = MSet(10, 3)
    margins = []
    for _ in range(100):
        y = random_feasible_loss(dset, rng)
        z = gen.standard_normal(dset.dimension)
        margins.append(primal_norm_bruteforce(dset, z) + 1e-8 - float(y @ z))
    return _result("pairing_below_primal_norm", "domain", 100, margins)


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

def _central_diff(fn, x):
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = 1e-6
        grad[i] = (fn(x + e) - fn(x - e)) / 2e-6
    return grad


def prop_gradient_finite_diff(seed):
    rng = RngStream(seed, 201)
    margins = []
    total = 0
    mset = MSet(6, 2)
    phi = MSetRegularizer(6, 2)
    for _ in range(34):
        x = random_mset_interior(mset, rng)
        rel = _rel_gap(phi.grad(x), _central_diff(phi.value, x))
        margins.append(1e-5 - rel)
        total += 1
    dag = diamond_dag()
    psi = DilatedEntropy(dag)
    neg = NegativeEntropy()
    for _ in range(33):
        x = random_interior_flow(dag, rng)
        margins.append(1e-5 - _rel_gap(psi.grad(x), _central_diff(psi.value, x)))
        margins.append(1e-5 - _rel_gap(neg.grad(x), _central_diff(neg.value, x)))
        total += 2
    for _ in range(33):
        d2 = random_layered_dag(rng, max_edges=10)
        psi2 = DilatedEntropy(d2)
        x = random_interior_flow(d2, rng)
        margins.append(1e-5 - _rel_gap(psi2.grad(x), _central_diff(psi2.value, x)))
        total += 1
    return _result("gradient_matches_finite_differences", "regularizers",
                   total, margins)


def _rel_gap(a, b):
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a - b))) / scale


def mset_strong_convexity(rng, count, z_scale=None):
    """``<z, H(x) z> - <y, z>^2 / 9 >= -1e-9`` (the ``slack``) for the m-set
    regularizer at ``count`` random points, d in 4..10, normal ``z`` scaled
    by ``uniform(*z_scale)`` if given."""
    gen = rng.generator
    slacks = []
    for _ in range(count):
        d = int(gen.integers(4, 11))
        m = int(gen.integers(1, d // 2 + 1))
        mset = MSet(d, m)
        phi = MSetRegularizer(d, m)
        x = random_mset_interior(mset, rng)
        z = gen.standard_normal(d)
        if z_scale is not None:
            z = z * gen.uniform(*z_scale)
        y = random_feasible_loss(mset, rng, scale=1.0)
        slacks.append(phi.hessian_quadform(x, z) - float(y @ z) ** 2 / 9.0)
    return _result("mset_regularizer_ninth_strong_convexity", "regularizers",
                   count, [slack + 1e-9 for slack in slacks], slack=min(slacks))


def dilated_strong_convexity(rng, count):
    """``10 <z, H(x) z> - <y, z>^2 >= -1e-9`` (the ``slack``) for dilated
    entropy at ``count`` random points, 25 per random layered DAG."""
    gen = rng.generator
    slacks = []
    while len(slacks) < count:
        dag = random_layered_dag(rng, max_edges=12)
        psi = DilatedEntropy(dag)
        dset = DagPathSet(dag)
        for _ in range(min(25, count - len(slacks))):
            x = random_interior_flow(dag, rng)
            z = random_span_direction(dag, rng) * gen.uniform(0.2, 2.0)
            y = random_feasible_loss(dset, rng, scale=1.0)
            slacks.append(10.0 * psi.hessian_quadform(x, z) - float(y @ z) ** 2)
    return _result("dilated_entropy_tenth_strong_convexity", "regularizers",
                   count, [slack + 1e-9 for slack in slacks], slack=min(slacks))


def prop_mset_strong_convexity(seed):
    return mset_strong_convexity(RngStream(seed, 202), 500)


def prop_dilated_strong_convexity(seed):
    return dilated_strong_convexity(RngStream(seed, 203), 500)


def entropy_equality(rng, dags, max_edges):
    """Dilated entropy is the path-entropy sum within 1e-10 (the ``gap``)
    at an interior flow of each of ``dags`` random layered DAGs."""
    gaps = []
    for _ in range(dags):
        dag = random_layered_dag(rng, max_edges=max_edges, max_paths=20)
        psi = DilatedEntropy(dag)
        x = random_interior_flow(dag, rng)
        gaps.append(abs(psi.value(x) - path_entropy_sum(dag, x)))
    return _result("dilated_equals_path_entropy", "regularizers", dags,
                   [1e-10 - gap for gap in gaps], gap=max(gaps))


def prop_entropy_equality(seed):
    return entropy_equality(RngStream(seed, 204), 50, max_edges=14)


def prop_bregman_range(seed=None):
    """Deterministic: every m-set with d <= 10, so ``seed`` is unused."""
    margins = []
    total = 0
    for d in range(2, 11):
        for m in range(1, d // 2 + 1):
            mset = MSet(d, m)
            phi = MSetRegularizer(d, m)
            centre = phi.minimizer()
            bound = m + math.log(d / m) + 1e-9
            for v in mset.enumerate_vertices():
                margins.append(bound - phi.bregman(v, centre))
                total += 1
    return _result("bregman_range_at_most_m_plus_log", "regularizers",
                   total, margins)


def prop_dilated_minimizer(seed):
    rng = RngStream(seed, 205)
    margins = []
    for _ in range(20):
        dag = random_layered_dag(rng, max_edges=12)
        psi = DilatedEntropy(dag)
        uniform = uniform_path_flow(dag)
        numeric, _ = flow_prox_newton(dag, psi, uniform_path_flow(dag),
                                      np.zeros(dag.n_edges))
        margins.append(1e-8 - abs(psi.value(uniform) - psi.value(numeric)))
        margins.append(1e-10 - abs(psi.value(uniform) + math.log(dag.path_count())))
    return _result("dilated_minimizer_is_uniform_paths", "regularizers",
                   20, margins)


# ---------------------------------------------------------------------------
# learners
# ---------------------------------------------------------------------------

def prop_dag_hedge_vs_explicit(seed):
    rng = RngStream(seed, 301)
    margins = []
    for rep in range(10):
        dag = random_layered_dag(rng, max_edges=14, max_paths=50)
        dset = DagPathSet(dag)
        eta = 0.4
        fast = PathHedge(dset, eta)
        slow = ExplicitHedge(dset, eta)
        for _ in range(50):
            y = random_feasible_loss(dset, rng)
            gap = float(np.max(np.abs(fast.step(y) - slow.step(y))))
            margins.append(1e-12 - gap)
    return _result("weight_pushing_matches_explicit_hedge", "learners",
                   500, margins)


def prop_multitask_factorization(seed):
    rng = RngStream(seed, 302)
    dset = MultitaskSet([2, 3, 2])
    eta = 0.5
    block = PathHedge(dset, eta)
    flat = ExplicitHedge(dset, eta)
    margins = []
    for _ in range(60):
        y = random_feasible_loss(dset, rng)
        gap = float(np.max(np.abs(block.step(y) - flat.step(y))))
        margins.append(1e-12 - gap)
    return _result("product_hedge_factorizes", "learners", 60, margins)


def hedge_killer_closed_form(stream):
    """m-set Hedge's expected loss, at the rate the :class:`HedgeKillerStream`
    ``stream`` aims at, in each of its rounds, from the loads ``y_0`` on
    coordinate 0 and ``L``, their sum before the round.

    Small-rate branch (``1/m`` on the first m coordinates): a subset's
    weight depends only on its overlap ``r`` with them, so the loss is
    ``y_0`` times the mean overlap under the weights
    ``C(m, r) C(d-m, m-r) exp(-eta L r)``.  Large-rate branch (coordinate
    0 alone): ``p_0 y_0`` with ``p_0 = 1 / (1 + ((d-m)/m) exp(eta L))``.
    """
    d, m, eta = stream.dimension, stream.m, stream.eta
    y0 = stream.losses[:, 0]
    before = np.concatenate(([0.0], np.cumsum(y0)[:-1]))
    if stream.small_branch:
        overlap = np.arange(max(0, 2 * m - d), m + 1)
        log_count = np.array([math.log(math.comb(m, r) * math.comb(d - m, m - r))
                              for r in overlap])
        logits = log_count - eta * before[:, None] * overlap
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        return y0 * (weights @ overlap) / weights.sum(axis=1)
    return np.exp(-np.logaddexp(0.0, eta * before + math.log((d - m) / m))) * y0


def prop_hedge_killer_closed_form(seed=None):
    """Deterministic: the stream has no randomness, so ``seed`` is unused.

    Hedge's per-round expected loss in ``run_experiment`` against the
    stream aimed at its own rate, on both branches, is the closed form of
    :func:`hedge_killer_closed_form` within 1e-12 (the ``gap``)."""
    gaps = []
    horizon = 256
    for d, m in ((16, 4), (64, 8)):
        eta0 = adv.hedge_killer_base_rate(d, m, horizon)
        for eta in (eta0 / 2, 2 * eta0):
            spec = f"hedge:eta={eta}"
            res = run_experiment(ExperimentConfig(
                f"mset:{d}:{m}", [spec], f"hedge-killer:eta={eta}",
                horizon=horizon))
            closed = hedge_killer_closed_form(
                adv.HedgeKillerStream(d, m, horizon, eta))
            gaps.append(float(np.max(np.abs(res.ledgers[spec][0].loss
                                            - closed))))
    return _result("hedge_loss_is_its_closed_form", "learners",
                   len(gaps) * horizon, [1e-12 - gap for gap in gaps],
                   gap=max(gaps))


def prop_omd_interiority_and_kkt(seed):
    rng = RngStream(seed, 303)
    dset = MSet(12, 4)
    learner = MSetOmd(dset, 0.15)
    margins = []
    kkt_margins = []
    for _ in range(300):
        y = random_feasible_loss(dset, rng)
        learner.step(y)
        margins.append(float(learner.iterate.min()))
        stat, card = learner.kkt_residual()
        kkt_margins.append(1e-9 - stat)
        kkt_margins.append(1e-9 - card)
        ok = abs(learner.iterate.sum() - dset.m) <= 1e-9
        kkt_margins.append(0.0 if ok else -1.0)
    worst = min(min(margins), min(kkt_margins))
    return PropertyResult("mset_omd_interior_and_kkt", "learners", 300,
                          worst, min(margins) > 0 and min(kkt_margins) >= 0)


def loss_shift(rng, dags, per_dag):
    """Shifted losses: every ``entry`` >= -1e-12, each path's shift
    ``deviation`` from alpha <= 1e-12, each path's sum of ``squares`` <= 4
    (+1e-9), for ``per_dag`` losses on each of ``dags`` random DAGs."""
    margins, entries, deviations, squares = [], [], [], []
    for _ in range(dags):
        dag = random_layered_dag(rng, max_edges=14, max_paths=40)
        dset = DagPathSet(dag)
        paths = np.asarray(dag.enumerate_paths())
        for _ in range(per_dag):
            y = random_feasible_loss(dset, rng)
            shifted, alpha = shift_losses(dag, y)
            entries.append(float(shifted.min()))
            deltas = paths @ shifted - paths @ y
            deviations.append(float(np.max(np.abs(deltas - alpha))))
            squares.append(float(np.max(paths @ (shifted ** 2))))
            margins += [entries[-1] + 1e-12, 1e-12 - deviations[-1],
                        4.0 + 1e-9 - squares[-1]]
    return _result("loss_shift_nonneg_constant_bounded", "learners",
                   len(entries), margins, entry=min(entries),
                   deviation=max(deviations), squares=max(squares))


def prop_shift_losses(seed):
    return loss_shift(RngStream(seed, 304), 40, 25)


def prop_entropy_omd_matches_newton(seed):
    rng = RngStream(seed, 305)
    dag = diamond_dag()
    dset = DagPathSet(dag)
    eta = 0.7
    fast = EntropyDagOmd(dset, eta)
    oracle, linear = uniform_path_flow(dag), np.zeros(dag.n_edges)
    margins = []
    for _ in range(40):
        # the same step, projected by the KKT Newton oracle
        oracle, _ = flow_prox_newton(dag, NegativeEntropy(), oracle, linear)
        y = random_feasible_loss(dset, rng)
        gap = float(np.max(np.abs(fast.step(y) - oracle)))
        margins.append(1e-8 - gap)
        ok, res = flow_check(dag, fast.iterate)
        margins.append(1e-9 - res)
        linear = eta * shift_losses(dag, y)[0] - np.log(oracle)
    return _result("entropy_projection_matches_newton", "learners", 40, margins)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def band_margins(counts, draws, target, slack=0.0):
    """Margins of the empirical marginals ``counts / draws`` inside the
    4-sigma band around ``target``, widened by ``slack``."""
    band = 4.0 * np.sqrt(target * (1 - target) / draws)
    return (band + slack - np.abs(counts / draws - target)).tolist()


def prop_sampler_marginals(seed):
    n = 100_000
    # m-set sampler, including a capped coordinate
    policy = np.array([1.0, 0.6, 0.4])
    rng = RngStream(seed, 401)
    margins = band_margins(sum(sample_mset(policy, 2, rng) for _ in range(n)),
                           n, policy, slack=1e-12)
    # path sampler on the diamond
    dag, flow = diamond_dag(), np.array([0.3, 0.7, 0.3, 0.7])
    rng = RngStream(seed, 402)
    margins += band_margins(sum(sample_path(dag, flow, rng) for _ in range(n)),
                            n, flow, slack=1e-12)
    # categorical over two vertices, weights (1, e)
    verts, w = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, math.e])
    rng = RngStream(seed, 403)
    margins += band_margins(
        sum(sample_explicit(verts, w, rng) for _ in range(n)), n, w / w.sum())
    return _result("sampler_marginals_within_4_sigma", "sampling",
                   3 * n, margins)


def prop_sampler_exactness(seed):
    rng = RngStream(seed, 404)
    gen = rng.generator
    margins = []
    dag = random_layered_dag(rng, max_edges=12)
    dset = DagPathSet(dag)
    flow = random_interior_flow(dag, rng)
    for _ in range(2000):
        x = sample_path(dag, flow, rng)
        ok, res = flow_check(dag, x)
        margins.append(0.0 if ok else -res)
    mset = MSet(9, 3)
    policy = random_mset_interior(mset, rng)
    for _ in range(2000):
        x = sample_mset(policy, 3, rng)
        margins.append(0.0 if int(x.sum()) == 3 else -1.0)
    return _result("samplers_emit_exact_vertices", "sampling", 4000, margins)


def prop_sampler_determinism(seed):
    margins = []
    policy = np.array([0.5, 0.5, 0.7, 0.3])
    a = [sample_mset(policy, 2, RngStream(seed, 405, i)) for i in range(50)]
    b = [sample_mset(policy, 2, RngStream(seed, 405, i)) for i in range(50)]
    same = all(np.array_equal(x, y) for x, y in zip(a, b))
    margins.append(0.0 if same else -1.0)
    return _result("identical_seed_identical_draws", "sampling", 50, margins)


# ---------------------------------------------------------------------------
# adversaries
# ---------------------------------------------------------------------------

def prop_adversary_feasibility(seed):
    rng = RngStream(seed, 501)
    margins = []
    total = 0
    streams = []
    mset = MSet(12, 3)
    streams.append((mset, adv.MSetLbStream(12, 3, 2500, rng.substream(1))))
    streams.append((mset, adv.HedgeKillerStream(12, 3, 2500, 0.01)))
    streams.append((mset, adv.HedgeKillerStream(12, 3, 2500, 1.5)))
    streams.append((mset, adv.UniversalStream(mset, 2500, rng.substream(2))))
    mt = MultitaskSet([2, 4, 3])
    streams.append((mt, adv.MultitaskPhaseStream([2, 4, 3], 2500,
                                                 rng.substream(3))))
    dag, factory, _ = adv.dag_hard_instance(16, 32, 2500)
    streams.append((DagPathSet(dag), factory(rng.substream(4))))
    for dset, stream in streams:
        for t in range(1, stream.horizon + 1):
            report = dset.validate_loss(stream.loss(t))
            margins.append(1.0 + 1e-9 - report.value)
            total += 1
    return _result("every_emitted_loss_is_feasible", "adversaries",
                   total, margins)


def prop_adversary_zero_mean(seed):
    rng = RngStream(seed, 502)
    margins = []
    reps = 400
    horizon = 50
    mset = MSet(12, 3)
    dag, layered_factory, _ = adv.dag_hard_instance(16, 32, horizon)
    makers = [
        (1.0 / 3.0, lambda r: adv.MSetLbStream(12, 3, horizon, r)),
        (1.0, lambda r: adv.UniversalStream(mset, horizon, r)),
        (1.0, lambda r: adv.MultitaskPhaseStream([2, 3], horizon, r)),
        (1.0, layered_factory),
    ]
    for i, (entry_scale, make) in enumerate(makers):
        acc = None
        for r in range(reps):
            stream = make(rng.substream(i, r))
            total = sum(stream.loss(t) for t in range(1, horizon + 1))
            acc = total if acc is None else acc + total
        mean = acc / (reps * horizon)
        band = 4.0 * entry_scale / math.sqrt(reps * horizon)
        margins.extend((band - np.abs(mean)).tolist())
    return _result("randomized_streams_are_zero_mean", "adversaries",
                   4 * reps * horizon, margins)


def prop_khintchine_sandwich(seed):
    gen = RngStream(seed, 503).generator
    horizon, reps = 400, 100_000
    signs = gen.integers(0, 2, size=(reps, horizon)) * 2.0 - 1.0
    est = float(np.mean(np.abs(signs.sum(axis=1))))
    se = float(np.std(np.abs(signs.sum(axis=1)), ddof=1) / math.sqrt(reps))
    lo, hi = math.sqrt(horizon / 2.0), math.sqrt(horizon)
    margins = [est - (lo - 3 * se), (hi + 3 * se) - est]
    return _result("khintchine_sandwich", "adversaries", reps, margins,
                   detail=f"estimate {est:.3f} in [{lo:.3f}, {hi:.3f}]")


def prop_shattered_witnesses(seed):
    margins = []
    cases = [
        (hypercube_set(3), 3),
        (MSet(8, 3), 3),
        (MSet(40, 8), 8),
        (hypercube_set(2), 2),
    ]
    for dset, k in cases:
        sset = adv.find_shattered_set(dset, k)
        margins.append(0.0 if sset.verify() and sset.size == k else -1.0)
    return _result("shattered_witness_maps_check", "adversaries",
                   len(cases), margins)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def csv_reproducibility(config):
    """Two runs of ``config`` give the same CSV ``bytes``."""
    a, b = (csv_text(run_experiment(config)).encode() for _ in range(2))
    return _result("identical_config_identical_csv", "harness", 2,
                   [0.0 if a == b else -1.0], bytes=len(a))


def prop_harness_reproducibility(seed):
    return csv_reproducibility(ExperimentConfig(
        "mset:8:2", ["hedge", "omd-mset"], "mset-lb", horizon=60, trials=3,
        seed=seed, mode="sampled"))


def prop_ledger_consistency(seed):
    cfg = ExperimentConfig("mset:8:2", ["hedge"], "universal",
                           horizon=80, trials=2, seed=seed)
    res = run_experiment(cfg)
    margins = []
    for trials in res.ledgers.values():
        for led in trials:
            gap = np.max(np.abs(led.regret - (led.cum_loss - led.cum_best)))
            margins.append(1e-12 - float(gap))
            gap2 = np.max(np.abs(np.cumsum(led.loss) - led.cum_loss))
            margins.append(1e-12 - float(gap2))
    return _result("regret_is_difference_of_cumulatives", "harness",
                   len(margins), margins)


PROPERTIES = [
    ("domain", prop_dual_norm_enumeration),
    ("domain", prop_primal_norm_bound),
    ("domain", prop_norm_duality),
    ("regularizers", prop_gradient_finite_diff),
    ("regularizers", prop_mset_strong_convexity),
    ("regularizers", prop_dilated_strong_convexity),
    ("regularizers", prop_entropy_equality),
    ("regularizers", prop_bregman_range),
    ("regularizers", prop_dilated_minimizer),
    ("learners", prop_dag_hedge_vs_explicit),
    ("learners", prop_multitask_factorization),
    ("learners", prop_hedge_killer_closed_form),
    ("learners", prop_omd_interiority_and_kkt),
    ("learners", prop_shift_losses),
    ("learners", prop_entropy_omd_matches_newton),
    ("sampling", prop_sampler_marginals),
    ("sampling", prop_sampler_exactness),
    ("sampling", prop_sampler_determinism),
    ("adversaries", prop_adversary_feasibility),
    ("adversaries", prop_adversary_zero_mean),
    ("adversaries", prop_khintchine_sandwich),
    ("adversaries", prop_shattered_witnesses),
    ("harness", prop_harness_reproducibility),
    ("harness", prop_ledger_consistency),
]


def run_property_suite(scope=None, seed=0):
    """Run the registered invariants (optionally only one module's scope);
    returns the list of :class:`PropertyResult`.  A seed that no stream
    takes raises :class:`PreconditionError` before any check runs."""
    RngStream(seed)
    results = []
    for prop_scope, prop in PROPERTIES:
        if scope is not None and prop_scope != scope:
            continue
        try:
            res = prop(seed)
        except ComblabError as err:  # a property crashing is a failure, not an abort
            res = PropertyResult(prop.__name__, prop_scope, 0, float("-inf"),
                                 False, detail=f"raised {err!r}")
        results.append(res)
    return results
