"""Experiment runner: the spec-string registry, regret accounting, CSV export,
the iterate-equivalence certifier, and one-shot lower-bound demos.

Spec strings
------------
``name:<part>:...`` then ``:key=value`` options, as the tables :data:`SETS`,
:data:`LEARNERS` and :data:`ADVERSARIES` define them and :func:`spec_table`
prints them (``comblab run --help``).  A spec that does not fit its entry
raises :class:`PreconditionError` naming it, before round 1.

Config files are flat ``key=value`` text with keys ``set``, ``learner``
(comma-separated), ``adversary``, ``T``, ``trials``, ``seed``, ``mode``,
``eta``, ``out``; any other key raises :class:`PreconditionError`.
"""

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import adversaries as adv
from .domain import (DagPathSet, DecisionSet, ExplicitSet, MSet, MultitaskSet,
                     load_dag)
from .errors import ComblabError, InternalConsistencyError, PreconditionError
from .instances import hypercube_set
from .learners import (DilatedOmd, EntropyDagOmd, MSetOmd, PathHedge,
                       check_loss, dag_entropy_rate, default_learning_rate,
                       make_hedge, mset_omd_rate)
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
        if self.seed < 0:
            raise PreconditionError(f"seed must be non-negative, got {self.seed}")
        specs = self.learner_specs  # ledgers are keyed by spec
        if not specs or len(set(specs)) < len(specs):
            raise PreconditionError(
                f"need one or more distinct learner specs, got {specs}")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise PreconditionError(f"out={self.out}: no such directory")


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
            key = key.strip()
            if key in values:
                raise PreconditionError(f"config key {key} is repeated")
            values[key] = val.strip()
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


# ---------------------------------------------------------------------------
# spec registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    """One spec name.  ``args`` (in order) and ``options`` map each part to
    the converter of its text.  A set is ``build(*args)``, a learner
    ``build(decision_set, eta, **options)`` (``eta`` by default
    ``rate(decision_set, horizon)``), an adversary's stream factory
    ``build(decision_set, horizon, *args, **options)``.  ``set_class`` is
    the class a set spec builds, or that a learner or adversary needs."""
    doc: str
    build: Callable
    set_class: type = DecisionSet
    args: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    rate: Callable | None = None


def _rate(text):
    eta = float(text)
    if not 0 < eta < math.inf:
        raise ValueError(f"rate must be positive and finite, got {text}")
    return eta


def _uint(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text}")
    return value


def _flag(text):
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _vertex_file(path):
    """Rows of 0/1 entries split on any whitespace, or written ``101``."""
    with open(path) as fh:
        rows = [line.split() for line in fh]
    return [[int(b) for b in (row if len(row) > 1 else row[0])]
            for row in rows if row and not row[0].startswith("#")]


def _loss_file(path):
    if path == "zero":
        return None
    with open(path) as fh:
        return np.array([float(x) for x in fh.read().split()])


def _universal(dset, horizon, k=None):
    shattered = adv.find_shattered_set(
        dset, adv.universal_shattering_size(dset) if k is None else k)
    return lambda rng: adv.UniversalStream(dset, horizon, rng,
                                           shattered=shattered)


def _hedge_killer(mset, horizon, eta):
    if eta is None:
        raise PreconditionError("hedge-killer needs the targeted rate "
                                "(no eta-bearing learner in this run)")
    return lambda rng: adv.HedgeKillerStream(mset.dimension, mset.m, horizon,
                                             eta)


def _dag_layered(dset, horizon, d, n_paths):
    dag, factory, _ = adv.dag_hard_instance(d, n_paths, horizon)
    ours = dset.dag
    if (dag.edges, dag.source, dag.sink) != (ours.edges, ours.source, ours.sink):
        raise PreconditionError(
            "dag-layered adversary shape does not match the decision set; "
            "use the matching dag-layered set spec")
    return factory


def _constant(dset, horizon, vec):
    vec = np.zeros(dset.dimension) if vec is None else vec
    if not dset.validate_loss(vec).ok:  # wrong length included
        raise PreconditionError(f"constant adversary vector ({vec.size} entries"
                                f", the set {dset.dimension}) is infeasible")
    return lambda rng: adv.ConstantStream(vec, horizon)


SETS = {
    "mset": Spec("d-vectors with exactly m ones", MSet, MSet,
                 {"d": int, "m": int}),
    "multitask": Spec("one expert per block of d1, d2, ... experts",
                      MultitaskSet, MultitaskSet,
                      {"d1,d2,...": lambda s: [int(b) for b in s.split(",")]}),
    "dag": Spec("s-t paths of a DAG file", DagPathSet, DagPathSet,
                {"file": load_dag}),
    "dag-layered": Spec("s-t paths of a layered DAG, d edges, N paths",
                        lambda d, n: DagPathSet(adv.layered_dag(d, n)[0]),
                        DagPathSet, {"d": int, "N": int}),
    "explicit": Spec("0/1 vertices of a file, one per line", ExplicitSet,
                     ExplicitSet, {"file": _vertex_file}),
}

LEARNERS = {
    "hedge": Spec("Hedge; eta = sqrt(ln|X|/T)", make_hedge,
                  rate=default_learning_rate),
    "hedge-dag": Spec("Hedge; eta = sqrt(ln|X|/T)", PathHedge, DagPathSet,
                      rate=default_learning_rate),
    "omd-dilated": Spec("dilated OMD, numeric=1 by KKT; eta = sqrt(ln|X|/T)",
                        lambda dset, eta, numeric=False:
                        (DilatedOmd if numeric else PathHedge)(dset, eta),
                        DagPathSet, options={"numeric": _flag},
                        rate=default_learning_rate),
    "omd-mset": Spec("m-set OMD; eta = sqrt(2(m + ln(d/m))/(9T))", MSetOmd,
                     MSet, rate=lambda mset, horizon:
                     mset_omd_rate(mset.dimension, mset.m, horizon)),
    "omd-entropy-dag": Spec("entropy OMD; eta = sqrt(ln|X| ln d/T)",
                            EntropyDagOmd, DagPathSet, rate=dag_entropy_rate),
}

ADVERSARIES = {
    "universal": Spec("Rademacher signs on k shattered coordinates",
                      _universal, options={"k": int}),
    "mset-lb": Spec("blockwise sign patterns",
                    lambda mset, horizon: lambda rng: adv.MSetLbStream(
                        mset.dimension, mset.m, horizon, rng), MSet),
    "hedge-killer": Spec("beats Hedge at eta (default: first learner's)",
                         _hedge_killer, MSet, options={"eta": _rate}),
    "multitask-phases": Spec("per-block phases",
                             lambda mt, horizon: lambda rng:
                             adv.MultitaskPhaseStream(mt.block_sizes, horizon,
                                                      rng), MultitaskSet),
    "dag-layered": Spec("hard instance; d and N as in the set",
                        _dag_layered, DagPathSet, {"d": int, "N": int}),
    "constant": Spec("one vector from a file, or zero, every round",
                     _constant, args={"file|zero": _loss_file}),
    "gaussian": Spec("Gaussian losses at scale (0.9) * the unit bound",
                     lambda dset, horizon, scale=0.9: lambda rng:
                     adv.GaussianFeasibleStream(dset, horizon, rng,
                                                scale=scale),
                     options={"scale": float}),
}

#: per kind: title, registry, and the options every entry takes
_KINDS = {"set": ("Decision sets (set=)", SETS, {}),
          "learner": ("Learners (learner=, comma-separated)", LEARNERS,
                      {"eta": _rate}),
          "adversary": ("Adversaries (adversary=)", ADVERSARIES,
                        {"seed": _uint})}


def _usage(name, args, options):  # mset:<d>:<m>, universal[:k=<int>]
    return (name + "".join(f":<{arg}>" for arg in args)
            + "".join(f"[:{key}=<{convert.__name__.strip('_')}>]"
                      for key, convert in options.items()))


def spec_table():
    """Every registered spec: usage, set class and doc, one line each, as
    ``comblab run --help`` and the README print them."""
    lines = []
    for title, registry, common in _KINDS.values():
        lines.append(title + (f", each also {_usage('', (), common)}"
                              if common else "") + ":")
        for name, spec in registry.items():
            set_class = ("any" if spec.set_class is DecisionSet
                         else spec.set_class.__name__)
            lines.append(f"  {_usage(name, spec.args, spec.options):<29}"
                         f"{set_class:<14}{spec.doc}")
    return "\n".join(lines)


@contextmanager
def _parsed(spec, kind, decision_set=None):
    """``(entry, converted args, converted options)`` of ``spec``; raises
    :class:`PreconditionError`, naming the spec, if the parts or
    ``decision_set`` do not fit, and names it in one raised in the block."""
    try:
        _, registry, common = _KINDS[kind]
        name, *parts = spec.split(":")
        if name not in registry:
            raise PreconditionError(f"unknown name; known are {list(registry)}")
        entry = registry[name]
        converters = {**entry.options, **common}
        args = [part for part in parts if "=" not in part]
        options = dict(part.split("=", 1) for part in parts if "=" in part)
        if len(args) != len(entry.args):
            raise PreconditionError(f"{name} takes {len(entry.args)} "
                                    f"positional part(s), got {args}")
        unknown = sorted(set(options) - set(converters))
        if unknown:
            raise PreconditionError(f"unknown option(s) {unknown}; {name} "
                                    f"takes {sorted(converters)}")
        try:
            args = [convert(a) for convert, a in zip(entry.args.values(), args)]
            options = {k: converters[k](val) for k, val in options.items()}
        except (ValueError, OSError) as err:
            raise PreconditionError(str(err)) from None
        if decision_set is not None and not isinstance(decision_set,
                                                       entry.set_class):
            raise PreconditionError(f"needs a {entry.set_class.__name__}, "
                                    f"got a {type(decision_set).__name__}")
        yield entry, args, options
    except PreconditionError as err:
        err.args = (f"{kind} spec {spec!r}: {err}",)
        raise


def build_set(spec):
    """Decision set from its spec string (:data:`SETS`)."""
    with _parsed(spec, "set") as (entry, args, _):
        return entry.build(*args)


def build_learner(spec, decision_set, horizon, eta_override=None):
    """Fresh learner instance from its spec string (:data:`LEARNERS`)."""
    with _parsed(spec, "learner", decision_set) as (entry, _, options):
        eta = options.pop("eta", eta_override)
        learner = entry.build(decision_set, entry.rate(decision_set, horizon)
                              if eta is None else eta, **options)
    learner.name = spec
    return learner


def build_adversary(spec, decision_set, horizon, learner_eta=None):
    """Stream factory ``f(rng) -> LossStream`` from an adversary spec string
    (:data:`ADVERSARIES`); an ``eta`` option defaults to ``learner_eta``.

    A ``:seed=<uint>`` part pins the adversary's own randomness regardless
    of the experiment master seed (trial indices still vary the stream).
    """
    with _parsed(spec, "adversary", decision_set) as (entry, args, options):
        seed = options.pop("seed", None)
        if "eta" in entry.options:
            options.setdefault("eta", learner_eta)
        factory = entry.build(decision_set, horizon, *args, **options)
    if seed is None:
        return factory
    return lambda rng: factory(RngStream(seed, *rng.key))


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
            # Python floats, one conversion per column: repr as before
            columns = (np.asarray(c, dtype=float).tolist() for c in
                       (led.loss, led.cum_loss, led.cum_best, led.regret))
            for t, row in enumerate(zip(*columns), 1):
                lines.append(f"{trial},{t},{name},{row[0]!r},{row[1]!r},"
                             f"{row[2]!r},{row[3]!r}")
    return "\n".join(lines) + "\n"


def run_experiment(config, decision_set=None):
    """Run the predict-observe loop for every (trial, learner).

    In ``expected`` mode the learner is charged ``<policy, y>``; in
    ``sampled`` mode a vertex is drawn (expectation-matched to the policy,
    on DAG paths by ``sample_path``) and charged instead.  Losses are
    checked and scored per trial: before round 1 the stream's T losses are
    checked in one batched ``validate_losses`` and their running
    sums scored in one batched ``best_values`` (on DAG and multitask sets
    one forward shortest-path pass for every prefix), so regret curves
    are exact at every horizon.  A
    running sum that is not finite raises :class:`PreconditionError`.  The
    same prefix sums plan every :class:`PathHedge` outside m-sets
    (:meth:`PathHedge.plan`): its policies come from one weight-pushing pass
    per chunk of ``PLAN_ENTRIES // E`` rounds on a graph of ``E`` edges,
    shared by the learners of one rate, in place of one pass per learner
    and round.  In sampled mode each learner draws a chunk's paths in one
    ``draw_paths`` call, by one batch of uniforms of its own stream, so the
    paths and the sampler state are those of ``sample_path`` per round.  On
    m-sets the pass is bound by ``logaddexp`` and batching gains nothing,
    so they stay per round.  The check and the sums read the stream's
    ``(T, d)`` array ``losses``; the loop then calls ``stream.loss(t)``
    once per round, and from the first loss that fails the check it calls
    :func:`check_loss` on it, so that error comes in its round, before any
    learner absorbs that loss.

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
            n_ok, cum = _feasible_prefix(dset, stream.losses)
            if not isinstance(dset, MSet):  # m-set passes gain nothing batched
                plans = {}
                for learner in learners:
                    if isinstance(learner, PathHedge):
                        learner.plan(cum, plans)
            overflow = ~np.isfinite(cum).all(axis=1)
            if overflow.any():
                t = int(np.argmax(overflow)) + 1
                raise PreconditionError("the running loss sum is not finite")
            cum_best[:n_ok] = dset.best_values(cum)
            for t in range(1, config.horizon + 1):
                y = stream.loss(t)  # the one call; perfbench's tracer reads t
                if t > n_ok:  # the first loss that fails: raises here
                    check_loss(dset, y)
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


def _feasible_prefix(dset, ys):
    """``(n, cum)``: the number ``n`` of leading rows of the ``(T, k)``
    array ``ys`` that pass ``validate_loss``, checked in one batched pass,
    and their running sums as an ``(n, d)`` array, row ``t - 1`` summing
    rounds 1 to ``t``.  Rows of a width ``k`` other than the set's
    dimension ``d`` all fail (``n = 0``)."""
    d = dset.dimension
    if ys.shape[1] != d:
        return 0, np.zeros((0, d))
    ok, _ = dset.validate_losses(ys)
    n = len(ys) if ok.all() else int(np.argmin(ok))
    with np.errstate(over="ignore"):  # the caller rejects a sum past the range
        # + 0.0 as a sum from zero: a -0.0 in the first loss becomes 0.0
        return n, np.cumsum(ys[:n], axis=0) + 0.0


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


def check_iterate_equivalence(dag, stream, eta, *, tol=1e-6):
    """Run numeric-KKT dilated-entropy mirror descent and weight-pushing
    Hedge on the stream's losses; report the per-round sup-norm policy gap.

    The mirror-descent side solves each proximal step numerically, apart
    from weight pushing, so the comparison is non-circular.  Solver
    failures propagate.  A tolerance that is not a finite non-negative
    number raises :class:`PreconditionError` before round 1.  The losses
    are checked as :func:`run_experiment` checks them: in one batched
    pass, and from the first that fails, :func:`check_loss` raises in its
    round, after both learners have absorbed the rounds before it.
    """
    if not 0.0 <= tol < math.inf:
        raise PreconditionError(f"tolerance must be finite and non-negative, "
                                f"got {tol!r}")
    dset = DagPathSet(dag)
    omd = DilatedOmd(dset, eta)
    hedge = PathHedge(dset, eta)
    n_ok, _ = _feasible_prefix(dset, stream.losses)
    gaps = np.zeros(stream.horizon)
    for t, y in enumerate(stream.losses, 1):
        if t > n_ok:  # the first loss that fails: raises here
            check_loss(dset, y)
        gaps[t - 1] = float(np.max(np.abs(omd.propose() - hedge.propose())))
        omd.absorb(y)
        hedge.absorb(y)
    return EquivalenceReport(gaps, tol)


# ---------------------------------------------------------------------------
# lower-bound demos
# ---------------------------------------------------------------------------

def _demo_universal(seed):
    dset = hypercube_set(4)
    cfg = ExperimentConfig("explicit:<hypercube-4>", ["hedge"], "universal",
                           horizon=4000, trials=200, seed=seed)
    res = run_experiment(cfg, decision_set=dset)
    segments = adv.universal_shattering_size(dset)
    rate = math.sqrt(cfg.horizon * segments / 8.0)
    stats = res.summary["hedge"]
    return {
        "instance": "hypercube d=4, Rademacher segments on a shattered set",
        "segments": segments,
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


#: the m-set and horizon of ``lb_demo("mset-hedge-lb")``
SEPARATION_INSTANCE = (64, 8, 8192)


def separation_rates(d, m, horizon):
    """Hedge's rates in ``lb_demo("mset-hedge-lb")``, by label."""
    eta0 = adv.hedge_killer_base_rate(d, m, horizon)
    return {"eta0/2": eta0 / 2, "eta0": eta0, "2*eta0": 2 * eta0,
            "sqrt(ln|X|/T)": default_learning_rate(MSet(d, m), horizon)}


def _demo_mset_hedge_lb(seed):
    d, m, horizon = SEPARATION_INSTANCE
    dset = MSet(d, m)
    rows = {}
    for label, eta in separation_rates(d, m, horizon).items():
        cfg = ExperimentConfig(f"mset:{d}:{m}", [f"hedge:eta={eta}", "omd-mset"],
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
    # Both specs run PathHedge, so their columns agree by construction; the
    # largest policy gap of numeric-KKT DilatedOmd to PathHedge on trial 0's
    # stream certifies that dilated-entropy OMD has Hedge's iterates.
    equivalence = check_iterate_equivalence(
        dag, factory(RngStream(seed, 0, 0)),
        default_learning_rate(dset, cfg.horizon))
    return {
        "instance": f"layered DAG {meta}",
        "measured": {k: v["mean_final_regret"] for k, v in res.summary.items()},
        "theory_rate sqrt(T*ln N)":
            math.sqrt(cfg.horizon * math.log(meta["paths"])),
        "iterate_equivalence_max_gap": equivalence.max_gap,
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

