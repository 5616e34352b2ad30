"""The benchmark's workloads: the configs of one cycle, made from the seed,
and the checks that apply to each workload's outputs.

An operation is one ``run_experiment`` call on one config; a cycle runs
every config of the workload once, in order.  Every cycle of a run repeats
the same operations, so a run's figures summarise identical work.
The README gives the reason for each workload.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

#: failure messages kept per checked operation; one is enough to fail the run
MAX_MESSAGES = 3


@dataclass
class Reference:
    """Inputs rebuilt from the harness's stream keys, and what follows from
    them without the program: per trial ``(losses, best-in-hindsight)``."""
    decision_set: object
    trials: list


def learner_rounds(config):
    return len(config.learner_specs) * config.horizon * config.trials


def omd_mset_rate(d, m, horizon):
    """The m-set mirror-descent learner's prescribed rate."""
    return math.sqrt(2.0 * (m + math.log(d / m)) / (9.0 * horizon))


def hedge_killer_base_rate(d, m, horizon):
    """The rate that splits the rate-targeted stream into its two branches.

    Written as the stream writes it, so that the rate eta0 itself falls on
    the same (small-rate) side of the split here and in the program.
    """
    return math.sqrt(m * math.log(d / m) / horizon)


class Workload:
    """Configs of one cycle plus the checks of their outputs."""

    name = ""

    def __init__(self, comblab, seed, out_dir):
        self.cl = comblab
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.configs = self.make_configs()

    def make_configs(self):
        raise NotImplementedError

    def adversary_eta(self, index):
        """The rate ``run_experiment`` hands to ``build_adversary``; only an
        adversary spec without its own rate reads it."""
        return None

    def best(self, decision_set, losses):
        raise NotImplementedError

    def reference(self):
        """One :class:`Reference` per config, built before any timing."""
        refs = []
        for i, cfg in enumerate(self.configs):
            dset = self.cl.build_set(cfg.set_spec)
            factory = self.cl.build_adversary(cfg.adversary_spec, dset,
                                              cfg.horizon, self.adversary_eta(i))
            trials = []
            for trial in range(cfg.trials):
                stream = factory(self.cl.RngStream(cfg.seed, trial, 0))
                losses = np.array([stream.loss(t)
                                   for t in range(1, cfg.horizon + 1)])
                trials.append((losses, self.best(dset, losses)))
            refs.append(Reference(dset, trials))
        return refs

    # -- checks ------------------------------------------------------------

    def check_result(self, index, result, ref):
        """Checks of the ledgers (and the CSV file) one operation returned."""
        failures = []
        for spec, per_trial in result.ledgers.items():
            for trial, led in enumerate(per_trial):
                failures += checks.ledger_failures(
                    f"{self.name}[{index}] {spec} trial {trial}", led.loss,
                    led.cum_loss, led.cum_best, led.regret, ref.trials[trial][1])
        if result.config.out:
            failures += checks.csv_failures(
                f"{self.name}[{index}] {result.config.out}",
                Path(result.config.out).read_text(), result.ledgers)
        return _trim(failures + self.result_checks(index, result, ref))

    def result_checks(self, index, result, ref):
        return []

    def check_trace(self, index, result, ref, tracer):
        """Checks of what a traced operation proposed, sampled and solved."""
        cfg = self.configs[index]
        charged = tracer.samples if cfg.mode == "sampled" else tracer.policies
        failures = []
        for spec, per_trial in result.ledgers.items():
            for trial, led in enumerate(per_trial):
                label = f"{self.name}[{index}] {spec} trial {trial}"
                xs = _rounds(charged, spec, trial, cfg.horizon)
                if xs is None:
                    failures.append(f"{label}: a round left no traced vertex")
                    continue
                failures += checks.charged_loss_failures(
                    label, led.loss, xs, ref.trials[trial][0])
        return _trim(failures + self.trace_checks(index, result, ref, tracer))

    def trace_checks(self, index, result, ref, tracer):
        return []


def _rounds(captured, spec, trial, horizon):
    """``captured[(spec, trial, t)]`` for t = 1..T as one array, or None."""
    rows = [captured.get((spec, trial, t)) for t in range(1, horizon + 1)]
    if any(row is None for row in rows):
        return None
    return np.array(rows)


def _trim(failures):
    return failures[:MAX_MESSAGES]


def _mset_prox_failures(label, tracer):
    failures = []
    for k, (x_old, step, x_new, m) in enumerate(tracer.prox_steps):
        failures += checks.mset_prox_failures(f"{label} step {k}", x_old, step,
                                              x_new, m)
        if failures:
            break
    return failures


class MSetOmdWorkload(Workload):
    """``omd-mset`` alone, many trials per config (criterion 6, scaled down)."""

    name = "mset-omd"
    SETS = ((16, 4), (32, 8))
    ADVERSARIES = ("universal", "mset-lb", "hedge-killer")
    HORIZON = 128
    TRIALS = 16

    def make_configs(self):
        return [self.cl.ExperimentConfig(f"mset:{d}:{m}", ["omd-mset"], adv,
                                         horizon=self.HORIZON,
                                         trials=self.TRIALS, seed=self.seed)
                for d, m in self.SETS for adv in self.ADVERSARIES]

    def adversary_eta(self, index):
        # hedge-killer targets the only learner's own rate
        d, m = self.SETS[index // len(self.ADVERSARIES)]
        return omd_mset_rate(d, m, self.HORIZON)

    def best(self, decision_set, losses):
        return checks.mset_best(losses, decision_set.m)

    def result_checks(self, index, result, ref):
        dset = ref.decision_set
        return checks.mset_omd_bound_failures(
            f"{self.name}[{index}]",
            float(np.mean([led.regret[-1] for led in result.ledgers["omd-mset"]])),
            self.HORIZON, dset.dimension, dset.m)

    def trace_checks(self, index, result, ref, tracer):
        label = f"{self.name}[{index}]"
        failures = []
        for (spec, trial, t), x in tracer.policies.items():
            failures += checks.mset_iterate_failures(
                f"{label} trial {trial} t={t}", x, ref.decision_set.m)
            if failures:
                break
        return failures + _mset_prox_failures(label, tracer)


class MSetHedgeWorkload(Workload):
    """Hedge beside ``omd-mset`` on the stream aimed at Hedge's rate, at the
    four rates of criterion 7; one trial per config."""

    name = "mset-hedge"
    D, M = 64, 8
    HORIZON = 128

    def make_configs(self):
        eta0 = hedge_killer_base_rate(self.D, self.M, self.HORIZON)
        log_count = math.log(math.comb(self.D, self.M))
        self.rates = [eta0 / 2, eta0, 2 * eta0,
                      math.sqrt(log_count / self.HORIZON)]
        return [self.cl.ExperimentConfig(
                    f"mset:{self.D}:{self.M}", [f"hedge:eta={eta}", "omd-mset"],
                    f"hedge-killer:eta={eta}", horizon=self.HORIZON, trials=1,
                    seed=self.seed)
                for eta in self.rates]

    def best(self, decision_set, losses):
        return checks.mset_best(losses, decision_set.m)

    def result_checks(self, index, result, ref):
        label = f"{self.name}[{index}]"
        eta = self.rates[index]
        hedge, omd = result.ledgers[f"hedge:eta={eta}"][0], result.ledgers["omd-mset"][0]
        small = eta <= hedge_killer_base_rate(self.D, self.M, self.HORIZON)
        expected, failures = checks.hedge_killer_losses(
            ref.trials[0][0], self.D, self.M, eta, small)
        failures = [f"{label}: {msg}" for msg in failures]
        failures += checks.closed_form_failures(label, hedge.loss, expected)
        failures += checks.hedge_bound_failures(
            label, float(hedge.regret[-1]), math.log(math.comb(self.D, self.M)),
            eta, self.HORIZON)
        if not hedge.regret[-1] > omd.regret[-1]:
            failures.append(f"{label}: Hedge regret {hedge.regret[-1]:.6g} does "
                            f"not exceed omd-mset's {omd.regret[-1]:.6g}")
        return failures

    def trace_checks(self, index, result, ref, tracer):
        return _mset_prox_failures(f"{self.name}[{index}]", tracer)


class _LayeredDagWorkload(Workload):
    """Shared by the workloads on layered DAGs."""

    def best(self, decision_set, losses):
        dag = decision_set.dag
        return checks.layered_best(
            losses, checks.layered_detours(dag.edges, dag.source, dag.sink))

    @staticmethod
    def structure(ref):
        """(incidence matrix, path incidence rows) of the reference's DAG."""
        dag = ref.decision_set.dag
        layers = checks.layered_detours(dag.edges, dag.source, dag.sink)
        return (checks.incidence(dag.edges, dag.n_vertices),
                checks.path_incidence(layers, dag.n_edges))


class DagSampledWorkload(_LayeredDagWorkload):
    """Weight-pushing Hedge beside dilated-entropy mirror descent on a
    4-layer DAG, in sampled mode, writing the CSV ledger."""

    name = "dag-sampled"
    SPEC = "dag-layered:64:4096"
    HORIZON = 512
    TRIALS = 2

    def make_configs(self):
        return [self.cl.ExperimentConfig(
            self.SPEC, ["hedge-dag", "omd-dilated"], self.SPEC,
            horizon=self.HORIZON, trials=self.TRIALS, seed=self.seed,
            mode="sampled", out=str(self.out_dir / f"{self.name}.csv"))]

    def trace_checks(self, index, result, ref, tracer):
        label = f"{self.name}[{index}]"
        dag = ref.decision_set.dag
        inc, paths = self.structure(ref)
        eta = math.sqrt(math.log(paths.shape[0]) / self.HORIZON)
        failures = []
        for trial, (losses, _) in enumerate(ref.trials):
            hedge = _rounds(tracer.policies, "hedge-dag", trial, self.HORIZON)
            omd = _rounds(tracer.policies, "omd-dilated", trial, self.HORIZON)
            if hedge is None or omd is None:
                return [f"{label} trial {trial}: a round left no traced policy"]
            failures += checks.policy_gap_failures(
                f"{label} hedge-dag trial {trial} vs path Hedge", hedge,
                checks.path_hedge_policies(paths, losses, eta),
                checks.PATH_HEDGE_TOL)
            failures += checks.policy_gap_failures(
                f"{label} omd-dilated trial {trial} vs hedge-dag", omd, hedge,
                checks.EQUIVALENCE_TOL)
        for (spec, trial, t), x in tracer.samples.items():
            failures += checks.path_failures(f"{label} {spec} trial {trial} t={t}",
                                             x, inc, dag.source, dag.sink)
            if failures:
                break
        return failures


class DagFlowSolversWorkload(_LayeredDagWorkload):
    """The two flow-polytope solvers: the entropy projection of
    ``omd-entropy-dag`` and the KKT Newton of numeric ``omd-dilated``."""

    name = "dag-flow-solvers"
    SPEC = "dag-layered:16:32"
    HORIZON = 32
    ENTROPY, NUMERIC = "omd-entropy-dag", "omd-dilated:numeric=1"

    def make_configs(self):
        return [self.cl.ExperimentConfig(
            self.SPEC, [self.ENTROPY, self.NUMERIC], self.SPEC,
            horizon=self.HORIZON, trials=1, seed=self.seed)]

    def trace_checks(self, index, result, ref, tracer):
        label = f"{self.name}[{index}]"
        dag = ref.decision_set.dag
        inc, paths = self.structure(ref)
        n_paths, horizon = paths.shape[0], self.HORIZON
        eta_entropy = math.sqrt(math.log(n_paths) * math.log(dag.n_edges) / horizon)
        eta_dilated = math.sqrt(math.log(n_paths) / horizon)
        losses = ref.trials[0][0]
        entropy = _rounds(tracer.policies, self.ENTROPY, 0, horizon)
        numeric = _rounds(tracer.policies, self.NUMERIC, 0, horizon)
        if entropy is None or numeric is None:
            return [f"{label}: a round left no traced policy"]
        failures = []
        for spec, policies in ((self.ENTROPY, entropy), (self.NUMERIC, numeric)):
            for t, x in enumerate(policies, start=1):
                failures += checks.unit_flow_failures(
                    f"{label} {spec} t={t}", x, inc, dag.source, dag.sink)
        for t in range(1, horizon):
            failures += checks.entropy_step_failures(
                f"{label} {self.ENTROPY} t={t}", entropy[t - 1], entropy[t],
                losses[t - 1], eta_entropy, inc)
        failures += checks.policy_gap_failures(
            f"{label} {self.NUMERIC} vs path Hedge", numeric,
            checks.path_hedge_policies(paths, losses, eta_dilated),
            checks.NUMERIC_TOL)
        return failures


WORKLOADS = {cls.name: cls for cls in (MSetOmdWorkload, MSetHedgeWorkload,
                                       DagSampledWorkload, DagFlowSolversWorkload)}


def make(comblab, name, seed, out_dir):
    return WORKLOADS[name](comblab, seed, out_dir)
