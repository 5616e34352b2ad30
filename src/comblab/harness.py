"""Experiment runner: spec-string registries, regret accounting, CSV export,
the iterate-equivalence certifier, and one-shot lower-bound demos.

Spec strings
------------
Decision sets: ``explicit:<path>``, ``mset:<d>:<m>``,
``multitask:<d1>,<d2>,...``, ``dag:<path>``, ``dag-layered:<d>:<N>``.

Learners: ``hedge``, ``hedge-dag``, ``omd-mset``, ``omd-dilated``,
``omd-dilated:numeric=1``, ``omd-entropy-dag``, each optionally
``:eta=<float>``.  ``hedge`` runs weight pushing on m-sets, multitask sets
and DAG sets and enumerates only explicit sets; ``hedge-dag`` and
``omd-dilated`` (equal to path Hedge by iterate equivalence) run the same
weight pushing on DAG sets only; ``omd-dilated:numeric=1`` solves each
dilated-entropy proximal step by the KKT Newton oracle instead.

Adversaries: ``universal``, ``mset-lb``, ``hedge-killer``,
``multitask-phases``, ``dag-layered:<d>:<N>``, ``constant:<path>`` (or
``constant:zero``), ``gaussian[:scale=<s>]``.

Config files are flat ``key=value`` text with keys ``set``, ``learner``
(comma-separated), ``adversary``, ``T``, ``trials``, ``seed``, ``mode``,
``eta``, ``out``.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import adversaries as adv
from .domain import (DagPathSet, ExplicitSet, MSet, MultitaskSet, load_dag)
from .errors import ComblabError, InternalConsistencyError, PreconditionError, RangeError
from .instances import hypercube_set
from .learners import (DilatedOmd, EntropyDagOmd, MSetOmd, PathHedge,
                       dag_entropy_rate, default_learning_rate, make_hedge,
                       mset_omd_rate)
from .sampling import RngStream


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    set_spec: str
    learner_specs: list
    adversary_spec: str
    horizon: int
    trials: int = 1
    seed: int = 0
    mode: str = "expected"
    eta: float | None = None
    out: str | None = None

    def __post_init__(self):
        if self.horizon < 1 or self.trials < 1:
            raise PreconditionError("need horizon >= 1 and trials >= 1")
        if self.mode not in ("expected", "sampled"):
            raise PreconditionError("mode must be 'expected' or 'sampled'")


def parse_config(path):
    """Read a flat key=value config file into an :class:`ExperimentConfig`."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PreconditionError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    required = ("set", "learner", "adversary", "T")
    missing = [k for k in required if k not in values]
    if missing:
        raise PreconditionError(f"config missing keys: {missing}")
    return ExperimentConfig(
        set_spec=values["set"],
        learner_specs=[s.strip() for s in values["learner"].split(",") if s.strip()],
        adversary_spec=values["adversary"],
        horizon=int(values["T"]),
        trials=int(values.get("trials", 1)),
        seed=int(values.get("seed", 0)),
        mode=values.get("mode", "expected"),
        eta=float(values["eta"]) if "eta" in values else None,
        out=values.get("out"),
    )


def _split_spec(spec):
    parts = spec.split(":")
    name = parts[0]
    args = []
    kwargs = {}
    for part in parts[1:]:
        if "=" in part:
            key, _, val = part.partition("=")
            kwargs[key] = val
        else:
            args.append(part)
    return name, args, kwargs


def build_set(spec):
    """Decision set from its spec string."""
    name, args, _ = _split_spec(spec)
    if name == "mset":
        return MSet(int(args[0]), int(args[1]))
    if name == "multitask":
        return MultitaskSet([int(b) for b in args[0].split(",")])
    if name == "dag":
        return DagPathSet(load_dag(args[0]))
    if name == "dag-layered":
        dag, _, _ = adv.layered_dag(int(args[0]), int(args[1]))
        return DagPathSet(dag)
    if name == "explicit":
        return ExplicitSet(_load_vectors(args[0]))
    raise PreconditionError(f"unknown set spec {spec!r}")


def _load_vectors(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            bits = line.split() if " " in line else list(line)
            rows.append([int(b) for b in bits])
    return rows


def build_learner(spec, decision_set, horizon, eta_override=None):
    """Fresh learner instance from its spec string."""
    name, _, kwargs = _split_spec(spec)
    eta = float(kwargs["eta"]) if "eta" in kwargs else eta_override

    if name == "hedge":
        learner = make_hedge(decision_set,
                             eta or default_learning_rate(decision_set, horizon))
    elif name in ("hedge-dag", "omd-dilated"):
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError(f"{name} needs a dag decision set")
        numeric = name == "omd-dilated" and kwargs.get("numeric") == "1"
        learner = (DilatedOmd if numeric else PathHedge)(
            decision_set, eta or default_learning_rate(decision_set, horizon))
    elif name == "omd-mset":
        if not isinstance(decision_set, MSet):
            raise PreconditionError("omd-mset needs an mset decision set")
        learner = MSetOmd(decision_set,
                          eta or mset_omd_rate(decision_set.dimension,
                                               decision_set.m, horizon))
    elif name == "omd-entropy-dag":
        learner = EntropyDagOmd(decision_set,
                                eta or dag_entropy_rate(decision_set, horizon))
    else:
        raise PreconditionError(f"unknown learner spec {spec!r}")
    learner.name = spec
    return learner


def build_adversary(spec, decision_set, horizon, learner_eta=None):
    """Stream factory ``f(rng) -> LossStream`` from an adversary spec string.

    A ``:seed=<u64>`` part pins the adversary's own randomness regardless
    of the experiment master seed (trial indices still vary the stream).
    """
    name, args, kwargs = _split_spec(spec)
    factory = _build_adversary_factory(name, args, kwargs, decision_set,
                                       horizon, learner_eta)
    if "seed" in kwargs:
        seed = int(kwargs["seed"])
        inner = factory
        factory = lambda rng: inner(RngStream(seed, *rng.key))
    return factory


def _build_adversary_factory(name, args, kwargs, decision_set, horizon,
                             learner_eta):
    if name == "universal":
        k = (int(kwargs["k"]) if "k" in kwargs
             else adv.universal_shattering_size(decision_set))
        shattered = adv.find_shattered_set(decision_set, k)
        return lambda rng: adv.UniversalStream(decision_set, horizon, rng,
                                               shattered=shattered)
    if name == "mset-lb":
        if not isinstance(decision_set, MSet):
            raise PreconditionError("mset-lb needs an mset decision set")
        d, m = decision_set.dimension, decision_set.m
        return lambda rng: adv.MSetLbStream(d, m, horizon, rng)
    if name == "hedge-killer":
        if not isinstance(decision_set, MSet):
            raise PreconditionError("hedge-killer needs an mset decision set")
        eta = float(kwargs["eta"]) if "eta" in kwargs else learner_eta
        if eta is None:
            raise PreconditionError("hedge-killer needs the targeted rate "
                                    "(no eta-bearing learner in this run)")
        d, m = decision_set.dimension, decision_set.m
        return lambda rng: adv.HedgeKillerStream(d, m, horizon, eta)
    if name == "multitask-phases":
        if not isinstance(decision_set, MultitaskSet):
            raise PreconditionError("multitask-phases needs a multitask set")
        sizes = decision_set.block_sizes
        return lambda rng: adv.MultitaskPhaseStream(sizes, horizon, rng)
    if name == "dag-layered":
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError("dag-layered needs a dag decision set")
        dag, first_hops, _ = adv.layered_dag(int(args[0]), int(args[1]))
        if dag.n_edges != decision_set.dimension:
            raise PreconditionError(
                "dag-layered adversary shape does not match the decision set; "
                "use the matching dag-layered set spec")
        return lambda rng: adv.DagLayeredStream(first_hops, dag.n_edges,
                                                horizon, rng)
    if name == "constant":
        if args and args[0] == "zero":
            vec = np.zeros(decision_set.dimension)
        else:
            with open(args[0]) as fh:
                vec = np.array([float(x) for x in fh.read().split()])
        report = decision_set.validate_loss(vec)
        if not report.ok:
            raise PreconditionError("constant adversary vector is infeasible")
        return lambda rng: adv.ConstantStream(vec, horizon)
    if name == "gaussian":
        scale = float(kwargs.get("scale", 0.9))
        return lambda rng: adv.GaussianFeasibleStream(decision_set, horizon,
                                                      rng, scale=scale)
    raise PreconditionError(f"unknown adversary spec {name!r}")


# ---------------------------------------------------------------------------
# regret ledger
# ---------------------------------------------------------------------------

@dataclass
class RegretLedger:
    """Per-round account of one learner in one trial."""
    learner: str
    loss: np.ndarray
    cum_loss: np.ndarray
    cum_best: np.ndarray
    regret: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.regret is None:
            self.regret = self.cum_loss - self.cum_best

    @property
    def horizon(self):
        return len(self.loss)

    def final_regret(self):
        return float(self.regret[-1])


def regret_of(ledger, t):
    """Regret at horizon ``t`` (1-indexed); best-in-hindsight is at that prefix."""
    if not (1 <= t <= ledger.horizon):
        raise RangeError(f"round {t} outside 1..{ledger.horizon}")
    return float(ledger.regret[t - 1])


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

#: slack added to the classical Hedge bound before tripping; covers float
#: accumulation only, not model error.
_TRIPWIRE_SLACK = 1e-6


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    ledgers: dict            # learner spec -> list of RegretLedger per trial
    summary: dict            # learner spec -> aggregate stats

    def summary_json(self):
        return json.dumps(self.summary, indent=2, sort_keys=True)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(csv_text(self))


def csv_text(result):
    """Deterministic CSV serialisation: header then one row per
    (trial, learner, round)."""
    lines = ["trial,t,learner,loss,cum_loss,cum_best,regret"]
    names = list(result.ledgers)
    n_trials = len(result.ledgers[names[0]])
    for trial in range(n_trials):
        for name in names:
            led = result.ledgers[name][trial]
            for t in range(led.horizon):
                lines.append(
                    f"{trial},{t + 1},{name},{float(led.loss[t])!r},"
                    f"{float(led.cum_loss[t])!r},{float(led.cum_best[t])!r},"
                    f"{float(led.regret[t])!r}")
    return "\n".join(lines) + "\n"


def run_experiment(config, decision_set=None):
    """Run the predict-observe loop for every (trial, learner).

    In ``expected`` mode the learner is charged ``<policy, y>``; in
    ``sampled`` mode a vertex is drawn (expectation-matched to the policy)
    and charged instead.  Best-in-hindsight is recomputed at every horizon
    via the closed-form minimizers, so regret curves are exact.

    Hedge-family learners are additionally checked against the classical
    ``ln|X|/eta + eta*T/2`` bound on their expected-mode regret; violating
    it indicates an implementation bug and raises.

    A ``ComblabError`` raised in a round, or in building a trial (round 0),
    propagates as the same object, with its message prefixed by the trial
    and round, which are also set as its ``trial`` and ``round`` attributes.
    """
    dset = decision_set if decision_set is not None else build_set(config.set_spec)

    adv_factory = None
    n = len(config.learner_specs)
    ledgers = {spec: [] for spec in config.learner_specs}
    for trial in range(config.trials):
        loss_hist = np.zeros((n, config.horizon))
        exp_loss_hist = np.zeros((n, config.horizon))
        cum_best = np.zeros(config.horizon)
        total_loss_vec = np.zeros(dset.dimension)
        t = 0
        try:
            learners = [build_learner(spec, dset, config.horizon, config.eta)
                        for spec in config.learner_specs]
            if adv_factory is None:  # needs the first learner's rate
                adv_factory = build_adversary(config.adversary_spec, dset,
                                              config.horizon,
                                              learner_eta=learners[0].eta)
            stream = adv_factory(RngStream(config.seed, trial, 0))
            sample_rngs = [RngStream(config.seed, trial, 1 + i) for i in range(n)]
            for t in range(1, config.horizon + 1):
                y = stream.loss(t)
                for i, learner in enumerate(learners):
                    policy = learner.propose()
                    expected = float(policy @ y)
                    if config.mode == "sampled":
                        x = learner.sample(sample_rngs[i])
                        loss_hist[i, t - 1] = float(x @ y)
                    else:
                        loss_hist[i, t - 1] = expected
                    exp_loss_hist[i, t - 1] = expected
                    learner.absorb(y)
                total_loss_vec += y
                cum_best[t - 1] = dset.best_vertex(total_loss_vec)[1]
        except ComblabError as err:
            err.args = (f"trial {trial}, round {t}: {err}",)
            err.trial, err.round = trial, t
            raise
        for i, learner in enumerate(learners):
            cum = np.cumsum(loss_hist[i])
            ledgers[config.learner_specs[i]].append(
                RegretLedger(config.learner_specs[i], loss_hist[i].copy(),
                             cum, cum_best.copy()))
            if learner.hedge_family:
                bound = (dset.log_count() / learner.eta
                         + learner.eta * config.horizon / 2.0)
                exp_regret = float(exp_loss_hist[i].sum() - cum_best[-1])
                if exp_regret > bound + _TRIPWIRE_SLACK:
                    raise InternalConsistencyError(
                        f"Hedge tripwire: expected regret {exp_regret:.6g} "
                        f"exceeds the classical bound {bound:.6g} "
                        f"(trial {trial}, learner {learner.name})")

    summary = {}
    for spec, trials in ledgers.items():
        finals = np.array([led.final_regret() for led in trials])
        summary[spec] = {
            "mean_final_regret": float(finals.mean()),
            "std": float(finals.std(ddof=1)) if len(finals) > 1 else 0.0,
            "min": float(finals.min()),
            "max": float(finals.max()),
            "trials": len(finals),
        }
    result = ExperimentResult(config, ledgers, summary)
    if config.out:
        result.to_csv(config.out)
    return result


# ---------------------------------------------------------------------------
# iterate equivalence
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    gaps: np.ndarray
    tolerance: float

    @property
    def max_gap(self):
        return float(np.max(self.gaps))

    @property
    def passed(self):
        return self.max_gap <= self.tolerance


def check_iterate_equivalence(dag, stream, eta, horizon, tol=1e-6):
    """Run numeric-KKT dilated-entropy mirror descent and weight-pushing
    Hedge on the same stream; report the per-round sup-norm policy gap.

    The mirror-descent side solves each proximal step numerically, apart
    from weight pushing, so the comparison is non-circular.  Solver
    failures propagate.
    """
    dset = DagPathSet(dag)
    omd = DilatedOmd(dset, eta)
    hedge = PathHedge(dset, eta)
    gaps = np.zeros(horizon)
    for t in range(1, horizon + 1):
        y = stream.loss(t)
        p_omd = omd.step(y)
        p_hedge = hedge.step(y)
        gaps[t - 1] = float(np.max(np.abs(p_omd - p_hedge)))
    return EquivalenceReport(gaps, tol)


# ---------------------------------------------------------------------------
# lower-bound demos
# ---------------------------------------------------------------------------

def _demo_universal(seed):
    dset = hypercube_set(4)
    cfg = ExperimentConfig("explicit:<hypercube-4>", ["hedge"], "universal",
                           horizon=4000, trials=200, seed=seed)
    res = run_experiment(cfg, decision_set=dset)
    probe = adv.UniversalStream(dset, cfg.horizon, RngStream(seed, 0, 0))
    rate = math.sqrt(cfg.horizon * probe.shattered.size / 8.0)
    stats = res.summary["hedge"]
    return {
        "instance": "hypercube d=4, Rademacher segments on a shattered set",
        "segments": probe.shattered.size,
        "measured_mean_regret": stats["mean_final_regret"],
        "std_error": stats["std"] / math.sqrt(stats["trials"]),
        "theory_rate sqrt(T*|I|/8)": rate,
    }


def _demo_mset_lb(seed):
    dset = MSet(16, 4)
    cfg = ExperimentConfig("mset:16:4", ["hedge", "omd-mset"], "mset-lb",
                           horizon=2048, trials=100, seed=seed)
    res = run_experiment(cfg, decision_set=dset)
    t, d, m = cfg.horizon, 16, 4
    return {
        "instance": "blockwise sign patterns on mset(16,4)",
        "measured": {k: v["mean_final_regret"] for k, v in res.summary.items()},
        "theory_rate sqrt(T*(m+ln(d/m)))":
            math.sqrt(t * (m + math.log(d / m))),
    }


def _demo_mset_hedge_lb(seed):
    d, m, horizon = 64, 8, 8192
    dset = MSet(d, m)
    eta0 = adv.hedge_killer_base_rate(d, m, horizon)
    rates = {"eta0/2": eta0 / 2, "eta0": eta0, "2*eta0": 2 * eta0,
             "sqrt(ln|X|/T)": default_learning_rate(dset, horizon)}
    rows = {}
    for label, eta in rates.items():
        cfg = ExperimentConfig("mset:64:8", [f"hedge:eta={eta}", "omd-mset"],
                               f"hedge-killer:eta={eta}", horizon=horizon,
                               trials=1, seed=seed)
        res = run_experiment(cfg, decision_set=dset)
        hedge_r = res.summary[f"hedge:eta={eta}"]["mean_final_regret"]
        omd_r = res.summary["omd-mset"]["mean_final_regret"]
        rows[label] = {"hedge_regret": hedge_r, "omd_regret": omd_r,
                       "ratio": hedge_r / omd_r if omd_r > 0 else float("inf")}
    return {"instance": "rate-targeted two-phase stream on mset(64,8)",
            "per_rate": rows}


def _demo_multitask(seed):
    cfg = ExperimentConfig("multitask:2,4,8", ["hedge"], "multitask-phases",
                           horizon=3000, trials=100, seed=seed)
    res = run_experiment(cfg)
    dset = build_set(cfg.set_spec)
    return {
        "instance": "per-block phases on multitask blocks (2,4,8)",
        "measured_mean_regret": res.summary["hedge"]["mean_final_regret"],
        "theory_rate sqrt(T*ln|X|)":
            math.sqrt(cfg.horizon * dset.log_count()),
    }


def _demo_dag_minimax(seed):
    dag, factory, meta = adv.dag_hard_instance(16, 32, 2048)
    dset = DagPathSet(dag)
    cfg = ExperimentConfig("dag-layered:16:32", ["hedge-dag", "omd-dilated"],
                           "dag-layered:16:32", horizon=2048, trials=100,
                           seed=seed)
    res = run_experiment(cfg, decision_set=dset)
    return {
        "instance": f"layered DAG {meta}",
        "measured": {k: v["mean_final_regret"] for k, v in res.summary.items()},
        "theory_rate sqrt(T*ln N)":
            math.sqrt(cfg.horizon * math.log(meta["paths"])),
    }


LB_DEMOS = {
    "universal": _demo_universal,
    "mset-lb": _demo_mset_lb,
    "mset-hedge-lb": _demo_mset_hedge_lb,
    "multitask": _demo_multitask,
    "dag-minimax": _demo_dag_minimax,
}


def lb_demo(theorem_id, seed=0):
    """One-shot reproduction of a lower-bound experiment with defaults.

    Reports measured means next to the theoretical square-root rates; the
    asymptotic constants are not asserted, only recorded.
    """
    if theorem_id not in LB_DEMOS:
        raise PreconditionError(
            f"unknown demo {theorem_id!r}; choose from {sorted(LB_DEMOS)}")
    return LB_DEMOS[theorem_id](seed)

