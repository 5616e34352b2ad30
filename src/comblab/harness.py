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

Adversaries: ``universal[:k=<int>]``, ``mset-lb``,
``hedge-killer[:eta=<float>]``, ``multitask-phases``,
``dag-layered:<d>:<N>``, ``constant:<path>`` (or ``constant:zero``),
``gaussian[:scale=<s>]``, each optionally ``:seed=<u64>``.  A spec with the
wrong number of positional parts, an unknown option or a value that does
not convert raises :class:`PreconditionError`.

Config files are flat ``key=value`` text with keys ``set``, ``learner``
(comma-separated), ``adversary``, ``T``, ``trials``, ``seed``, ``mode``,
``eta``, ``out``; any other key raises :class:`PreconditionError`.
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


_CONFIG_KEYS = ("set", "learner", "adversary", "T", "trials", "seed", "mode",
                "eta", "out")


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
    unknown = [k for k in values if k not in _CONFIG_KEYS]
    if unknown:
        raise PreconditionError(f"unknown config keys: {unknown}; "
                                f"known keys are {list(_CONFIG_KEYS)}")
    required = ("set", "learner", "adversary", "T")
    missing = [k for k in required if k not in values]
    if missing:
        raise PreconditionError(f"config missing keys: {missing}")

    def number(key, convert, default):
        try:
            return convert(values[key]) if key in values else default
        except ValueError:
            raise PreconditionError(
                f"config key {key}: bad value {values[key]!r}") from None

    return ExperimentConfig(
        set_spec=values["set"],
        learner_specs=[s.strip() for s in values["learner"].split(",") if s.strip()],
        adversary_spec=values["adversary"],
        horizon=number("T", int, None),
        trials=number("trials", int, 1),
        seed=number("seed", int, 0),
        mode=values.get("mode", "expected"),
        eta=number("eta", float, None),
        out=values.get("out"),
    )


def _flag(text):
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _int_list(text):
    return [int(b) for b in text.split(",")]


# Spec grammars: name -> (converters of the positional parts, in order;
# converters of the ``key=value`` options).
_SET_SPECS = {
    "mset": ((int, int), {}),
    "multitask": ((_int_list,), {}),
    "dag": ((str,), {}),
    "dag-layered": ((int, int), {}),
    "explicit": ((str,), {}),
}
_LEARNER_SPECS = {
    "hedge": ((), {"eta": float}),
    "hedge-dag": ((), {"eta": float}),
    "omd-mset": ((), {"eta": float}),
    "omd-dilated": ((), {"eta": float, "numeric": _flag}),
    "omd-entropy-dag": ((), {"eta": float}),
}
_ADVERSARY_SPECS = {
    "universal": ((), {"k": int, "seed": int}),
    "mset-lb": ((), {"seed": int}),
    "hedge-killer": ((), {"eta": float, "seed": int}),
    "multitask-phases": ((), {"seed": int}),
    "dag-layered": ((int, int), {"seed": int}),
    "constant": ((str,), {"seed": int}),
    "gaussian": ((), {"scale": float, "seed": int}),
}


def _split_spec(spec, kind, grammar):
    """Split ``name:part:...`` into ``(name, args, options)``, parts with
    ``=`` being options, and convert each part by ``grammar``.  A spec that
    does not fit its grammar raises :class:`PreconditionError`."""
    name, *parts = spec.split(":")
    if name not in grammar:
        raise PreconditionError(f"unknown {kind} spec {spec!r}")
    arg_types, option_types = grammar[name]
    args = [part for part in parts if "=" not in part]
    options = dict(part.split("=", 1) for part in parts if "=" in part)
    if len(args) != len(arg_types):
        raise PreconditionError(
            f"{kind} spec {spec!r}: {name} takes {len(arg_types)} positional "
            f"part(s), got {args}")
    unknown = sorted(set(options) - set(option_types))
    if unknown:
        raise PreconditionError(
            f"{kind} spec {spec!r}: unknown option(s) {unknown}; {name} "
            f"takes {sorted(option_types)}")
    try:
        return (name, [convert(a) for convert, a in zip(arg_types, args)],
                {key: option_types[key](val) for key, val in options.items()})
    except ValueError as err:
        raise PreconditionError(f"{kind} spec {spec!r}: {err}") from None


def build_set(spec):
    """Decision set from its spec string."""
    name, args, _ = _split_spec(spec, "set", _SET_SPECS)
    if name == "mset":
        return MSet(*args)
    if name == "multitask":
        return MultitaskSet(args[0])
    if name == "dag":
        return DagPathSet(load_dag(args[0]))
    if name == "dag-layered":
        dag, _, _ = adv.layered_dag(*args)
        return DagPathSet(dag)
    return ExplicitSet(_load_vectors(args[0]))  # explicit


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
    name, _, options = _split_spec(spec, "learner", _LEARNER_SPECS)
    eta = options.get("eta", eta_override)

    if name == "hedge":
        learner = make_hedge(decision_set, eta if eta is not None
                             else default_learning_rate(decision_set, horizon))
    elif name in ("hedge-dag", "omd-dilated"):
        if not isinstance(decision_set, DagPathSet):
            raise PreconditionError(f"{name} needs a dag decision set")
        learner = (DilatedOmd if options.get("numeric") else PathHedge)(
            decision_set, eta if eta is not None
            else default_learning_rate(decision_set, horizon))
    elif name == "omd-mset":
        if not isinstance(decision_set, MSet):
            raise PreconditionError("omd-mset needs an mset decision set")
        learner = MSetOmd(decision_set, eta if eta is not None
                          else mset_omd_rate(decision_set.dimension,
                                             decision_set.m, horizon))
    else:  # omd-entropy-dag
        learner = EntropyDagOmd(decision_set, eta if eta is not None
                                else dag_entropy_rate(decision_set, horizon))
    learner.name = spec
    return learner


def build_adversary(spec, decision_set, horizon, learner_eta=None):
    """Stream factory ``f(rng) -> LossStream`` from an adversary spec string.

    A ``:seed=<u64>`` part pins the adversary's own randomness regardless
    of the experiment master seed (trial indices still vary the stream).
    """
    name, args, options = _split_spec(spec, "adversary", _ADVERSARY_SPECS)
    factory = _build_adversary_factory(name, args, options, decision_set,
                                       horizon, learner_eta)
    if "seed" in options:
        seed = options["seed"]
        inner = factory
        factory = lambda rng: inner(RngStream(seed, *rng.key))
    return factory


def _build_adversary_factory(name, args, options, decision_set, horizon,
                             learner_eta):
    if name == "universal":
        k = (options["k"] if "k" in options
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
        eta = options.get("eta", learner_eta)
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
        dag, first_hops, _ = adv.layered_dag(*args)
        if dag.n_edges != decision_set.dimension:
            raise PreconditionError(
                "dag-layered adversary shape does not match the decision set; "
                "use the matching dag-layered set spec")
        return lambda rng: adv.DagLayeredStream(first_hops, dag.n_edges,
                                                horizon, rng)
    if name == "constant":
        if args[0] == "zero":
            vec = np.zeros(decision_set.dimension)
        else:
            with open(args[0]) as fh:
                vec = np.array([float(x) for x in fh.read().split()])
        report = decision_set.validate_loss(vec)
        if not report.ok:
            raise PreconditionError("constant adversary vector is infeasible")
        return lambda rng: adv.ConstantStream(vec, horizon)
    scale = options.get("scale", 0.9)  # gaussian
    return lambda rng: adv.GaussianFeasibleStream(decision_set, horizon, rng,
                                                  scale=scale)


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

