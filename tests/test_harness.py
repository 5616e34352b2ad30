import json
import math
import pathlib
import re
from collections import Counter

import numpy as np
import pytest

import comblab as cl
import comblab.harness as hz
from comblab.cli import main as cli_main
from comblab.instances import chain_dag, diamond_dag
from comblab.sampling import RngStream


def write_hypercube(tmp_path, d=2):
    import itertools
    p = tmp_path / f"hypercube{d}.txt"
    p.write_text("\n".join("".join(map(str, v))
                           for v in itertools.product((0, 1), repeat=d)) + "\n")
    return str(p)


# ---------------------------------------------------------------------------
# spec-string registries
# ---------------------------------------------------------------------------

def test_build_set_specs(tmp_path):
    assert isinstance(cl.build_set("mset:6:2"), cl.MSet)
    mt = cl.build_set("multitask:2,3,4")
    assert isinstance(mt, cl.MultitaskSet) and mt.dimension == 9
    dagfile = tmp_path / "g.dag"
    dagfile.write_text("dag 4 4 0 3\n0 1\n0 2\n1 3\n2 3\n")
    ds = cl.build_set(f"dag:{dagfile}")
    assert isinstance(ds, cl.DagPathSet) and ds.count() == 2
    ex = cl.build_set(f"explicit:{write_hypercube(tmp_path)}")
    assert isinstance(ex, cl.ExplicitSet) and ex.count() == 4
    layered = cl.build_set("dag-layered:16:32")
    assert layered.count() == 16
    with pytest.raises(cl.PreconditionError):
        cl.build_set("matroid:3")


def test_build_learner_specs_and_rates():
    dset = cl.MSet(8, 2)
    learner = cl.build_learner("hedge", dset, 100)
    assert learner.eta == pytest.approx(cl.default_learning_rate(dset, 100))
    learner = cl.build_learner("hedge:eta=0.25", dset, 100)
    assert learner.eta == 0.25
    learner = cl.build_learner("omd-mset", dset, 100)
    assert learner.eta == pytest.approx(cl.mset_omd_rate(8, 2, 100))
    dd = cl.DagPathSet(diamond_dag())
    assert isinstance(cl.build_learner("hedge-dag", dd, 10), cl.PathHedge)
    assert isinstance(cl.build_learner("omd-dilated", dd, 10), cl.PathHedge)
    assert isinstance(cl.build_learner("omd-dilated:numeric=1", dd, 10),
                      cl.DilatedOmd)
    assert isinstance(cl.build_learner("omd-entropy-dag", dd, 10),
                      cl.EntropyDagOmd)
    with pytest.raises(cl.PreconditionError):
        cl.build_learner("ftpl", dset, 100)


@pytest.mark.parametrize("slot,spec", [
    ("set", "mset:16"), ("set", "mset:a:b"), ("set", "mset:16:4:9"),
    ("set", "mset:16:4:x=1"),
    ("set", "dag:{tmp}/missing.dag"), ("set", "explicit:{tmp}/missing.txt"),
    ("learner", "hedge:eta=abc"), ("learner", "hedge:foo=1"),
    ("learner", "omd-mset:numeric=1"), ("learner", "omd-dilated:numeric=2"),
    ("adversary", "hedge-killer:eta=zz"), ("adversary", "universal:seed=x"),
    ("adversary", "universal:bogus=1"), ("adversary", "constant"),
    ("adversary", "hedge-killer:eta=nan"), ("adversary", "hedge-killer:eta=-1"),
    ("adversary", "hedge-killer:eta=inf"), ("adversary", "gaussian:seed=-1"),
    ("adversary", "constant:{tmp}/three.txt"),
    ("adversary", "constant:{tmp}/missing.txt"),
    ("seed", "-1"),
])
def test_malformed_specs_raise_precondition(tmp_path, slot, spec):
    (tmp_path / "three.txt").write_text("0.1 0.2 0.3\n")
    spec = spec.format(tmp=tmp_path)
    parts = {"set": "mset:16:4", "learner": "hedge", "adversary": "universal",
             "seed": "0"}
    parts[slot] = spec
    with pytest.raises(cl.PreconditionError, match=re.escape(spec)) as info:
        cl.run_experiment(cl.ExperimentConfig(
            parts["set"], [parts["learner"]], parts["adversary"], horizon=2,
            seed=int(parts["seed"])))
    if slot in ("learner", "adversary"):  # built inside the trial, before round 1
        assert (info.value.trial, info.value.round) == (0, 0)


@pytest.mark.parametrize("eta", ["0", "nan", "inf"])
def test_rate_must_be_positive_and_finite(eta):
    with pytest.raises(cl.PreconditionError, match="positive"):
        cl.build_learner(f"hedge:eta={eta}", cl.MSet(8, 2), 100)
    cfg = cl.ExperimentConfig("mset:8:2", ["omd-mset"], "gaussian", horizon=2,
                              eta=float(eta))
    with pytest.raises(cl.PreconditionError, match="positive"):
        cl.run_experiment(cfg)


@pytest.mark.parametrize("line,key", [("tirals=100", "tirals"),
                                      ("T=abc", "T"), ("trials=2.5", "trials"),
                                      ("seed=x", "seed"), ("eta=fast", "eta"),
                                      ("seed=-1", "seed"),
                                      ("learner=,", "learner"),
                                      ("learner=hedge,hedge", "learner")])
def test_config_typos_raise_precondition(tmp_path, line, key):
    cfgfile = tmp_path / "exp.cfg"
    lines = {"set": "mset:6:2", "learner": "hedge", "adversary": "mset-lb",
             "T": "40"}
    lines.update([line.split("=")])
    cfgfile.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
    with pytest.raises(cl.PreconditionError, match=key):
        cl.parse_config(str(cfgfile))


def test_config_parsing(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "# demo config\n"
        "set=mset:6:2\n"
        "learner=hedge, omd-mset\n"
        "adversary=mset-lb\n"
        "T=40\n"
        "trials=3\n"
        "seed=9\n"
        "mode=sampled\n")
    cfg = cl.parse_config(str(cfgfile))
    assert cfg.learner_specs == ["hedge", "omd-mset"]
    assert cfg.horizon == 40 and cfg.trials == 3 and cfg.mode == "sampled"
    bad = tmp_path / "bad.cfg"
    bad.write_text("set=mset:6:2\n")
    with pytest.raises(cl.PreconditionError):
        cl.parse_config(str(bad))


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_zero_adversary_zero_regret():
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge", "omd-mset"],
                              "constant:zero", horizon=25, trials=2, seed=0)
    res = cl.run_experiment(cfg)
    for stats in res.summary.values():
        assert stats["mean_final_regret"] == 0.0
        assert stats["max"] == 0.0


def test_hedge_two_experts_constant_loss(tmp_path):
    # Constant loss (1, 0): the exact expected regret has a closed form,
    # and the classical ln|X|/eta + eta*T/2 bound must hold.  The bare
    # sqrt(T ln 2) rate is recorded for comparison but is NOT a bound the
    # algorithm satisfies (the measured value sits slightly above it).
    horizon = 400
    eta = math.sqrt(math.log(2) / horizon)
    lossfile = tmp_path / "loss.txt"
    lossfile.write_text("1 0\n")
    cfg = cl.ExperimentConfig(f"explicit:{write_hypercube(tmp_path)}",
                              [f"hedge:eta={eta}"], f"constant:{lossfile}",
                              horizon=horizon, trials=1, seed=0)
    dset = cl.ExplicitSet([[1, 0], [0, 1]])
    res = cl.run_experiment(cfg, decision_set=dset)
    measured = res.summary[f"hedge:eta={eta}"]["mean_final_regret"]
    oracle = sum(1.0 / (1.0 + math.exp(eta * t)) for t in range(horizon))
    assert measured == pytest.approx(oracle, abs=1e-9)
    assert measured <= math.log(2) / eta + eta * horizon / 2
    rate = math.sqrt(horizon * math.log(2))
    assert abs(measured - rate) <= 1.0  # recorded: measured ~ rate + O(1)


def test_sampled_mode_uses_vertices():
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge", "omd-mset"], "mset-lb",
                              horizon=30, trials=2, seed=5, mode="sampled")
    res = cl.run_experiment(cfg)
    for trials in res.ledgers.values():
        for led in trials:
            # sampled losses are inner products with binary vertices: each
            # round's loss is a sum of two entries of {-1/2, 0, +1/2}
            assert np.all(np.isin(np.round(led.loss * 2, 9),
                                  [-2, -1, 0, 1, 2]))


def test_sampled_mode_mean_tracks_expected_mode():
    base = dict(horizon=60, trials=120, seed=2)
    exp = cl.run_experiment(cl.ExperimentConfig(
        "mset:6:2", ["hedge"], "hedge-killer:eta=0.4", mode="expected", **base))
    samp = cl.run_experiment(cl.ExperimentConfig(
        "mset:6:2", ["hedge"], "hedge-killer:eta=0.4", mode="sampled", **base))
    mu_e = exp.summary["hedge"]["mean_final_regret"]
    mu_s = samp.summary["hedge"]["mean_final_regret"]
    se = samp.summary["hedge"]["std"] / math.sqrt(120)
    assert abs(mu_s - mu_e) <= 4 * se + 1e-9


def test_mset_lb_charges_all_learners_alike():
    # The blockwise sign stream is conditionally zero-mean, so every
    # predictable policy has the same expected loss (zero) and regret is
    # the hindsight term: both learners' means agree within Monte Carlo
    # error and are strictly positive at sqrt(T) scale.
    cfg = cl.ExperimentConfig("mset:16:4", ["hedge", "omd-mset"], "mset-lb",
                              horizon=1024, trials=60, seed=17)
    res = cl.run_experiment(cfg)
    h = res.summary["hedge"]
    o = res.summary["omd-mset"]
    se = math.hypot(h["std"] / math.sqrt(h["trials"]),
                    o["std"] / math.sqrt(o["trials"]))
    assert h["mean_final_regret"] > 0 and o["mean_final_regret"] > 0
    assert abs(h["mean_final_regret"] - o["mean_final_regret"]) <= 4 * se


def test_trial_error_context():
    cfg = cl.ExperimentConfig("mset:4:2", ["hedge"], "constant:zero",
                              horizon=5, trials=1, seed=0)
    dset = cl.MSet(4, 2)
    bad = cl.build_adversary("constant:zero", dset, 5)

    class Bad:
        dimension, horizon = 4, 5

        def loss(self, t):
            return np.array([1.0, 1.0, 0.0, 0.0])

    def factory(rng):
        return Bad()

    import comblab.harness as hz
    orig = hz.build_adversary
    hz.build_adversary = lambda *a, **k: factory
    try:
        with pytest.raises(cl.ValidationError, match="trial 0, round 1"):
            cl.run_experiment(cfg, decision_set=dset)
    finally:
        hz.build_adversary = orig


def test_trial_error_keeps_the_validation_report(monkeypatch):
    import comblab.harness as hz

    class Infeasible:
        def loss(self, t):
            return np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    monkeypatch.setattr(hz, "build_adversary",
                        lambda *a, **k: (lambda rng: Infeasible()))
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge"], "constant:zero",
                              horizon=4)
    with pytest.raises(cl.ValidationError, match="trial 0, round 1") as info:
        cl.run_experiment(cfg)
    err = info.value
    assert err.report is not None and err.report.value == 2.0
    assert (err.trial, err.round) == (0, 1)


def test_each_loss_is_validated_once_per_round(monkeypatch):
    calls = []
    validate = cl.DecisionSet.validate_loss

    def counting(self, y, *args, **kwargs):
        calls.append(1)
        return validate(self, y, *args, **kwargs)

    monkeypatch.setattr(cl.DecisionSet, "validate_loss", counting)
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge", "omd-mset"], "mset-lb",
                              horizon=15, trials=2)
    cl.run_experiment(cfg)
    assert len(calls) == 2 * 15
    calls.clear()
    dag = diamond_dag()
    stream = cl.GaussianFeasibleStream(cl.DagPathSet(dag), 20, RngStream(6, 0))
    cl.check_iterate_equivalence(dag, stream, 0.3, 20)
    assert len(calls) == 20


def test_cli_reports_an_error_in_one_line(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("set=mset:6:2\nlearner=hedge\nadversary=mset-lb\n"
                       "T=abc\n")
    assert cli_main(["run", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("comblab: PreconditionError: config key T: "
                            "bad value 'abc'\n")


def test_trial_error_keeps_the_solver_residual(monkeypatch):
    import comblab.learners as ln

    def failing(*args, **kwargs):
        raise cl.SolverFailure("m-set prox did not converge", residual=0.25,
                               iterations=500)

    monkeypatch.setattr(ln, "mset_prox", failing)
    cfg = cl.ExperimentConfig("mset:6:2", ["omd-mset"], "mset-lb", horizon=4,
                              trials=2)
    with pytest.raises(cl.SolverFailure, match="trial 0, round 1") as info:
        cl.run_experiment(cfg)
    err = info.value
    assert (err.residual, err.iterations) == (0.25, 500)
    assert (err.trial, err.round) == (0, 1)


def cross_product_sets(tmp_path):
    """One set spec of every class the set registry builds."""
    sets = ["mset:8:2", "multitask:2,3", "dag-layered:16:32",
            f"explicit:{write_hypercube(tmp_path, 3)}"]
    assert ({type(cl.build_set(spec)) for spec in sets}
            == {entry.set_class for entry in hz.SETS.values()})
    return sets


def test_every_learner_runs_or_fails_before_round_1(tmp_path):
    learners = [spec for name, entry in hz.LEARNERS.items()
                for spec in [name] + [f"{name}:{key}=1" for key, convert
                                      in entry.options.items()
                                      if convert is hz._flag]]
    ran, expected = set(), set()
    for set_spec in cross_product_sets(tmp_path):
        dset = cl.build_set(set_spec)
        for spec in learners:
            if isinstance(dset, hz.LEARNERS[spec.split(":")[0]].set_class):
                expected.add((type(dset).__name__, spec))
            try:
                cl.build_learner(spec, dset, 3)
            except cl.PreconditionError:
                continue
            res = cl.run_experiment(cl.ExperimentConfig(
                set_spec, [spec], "gaussian", horizon=3, seed=1),
                decision_set=dset)
            assert res.ledgers[spec][0].horizon == 3
            ran.add((type(dset).__name__, spec))
    assert ran == expected
    assert len(ran) == 9
    # pinned apart from the table, so a wrong set class in it cannot agree
    # with itself
    assert Counter(cls for cls, _ in ran) == {
        "MSet": 2, "MultitaskSet": 1, "DagPathSet": 5, "ExplicitSet": 1}


def test_every_adversary_runs_or_fails_before_round_1(tmp_path):
    # positional parts by name; d and N match the dag-layered set above
    positional = {"d": 16, "N": 32, "file|zero": "zero"}
    adversaries = {name + "".join(f":{positional[arg]}" for arg in entry.args):
                   entry for name, entry in hz.ADVERSARIES.items()}
    ran, expected = set(), set()
    for set_spec in cross_product_sets(tmp_path):
        dset = cl.build_set(set_spec)
        kind = type(dset).__name__
        for spec, entry in adversaries.items():
            if isinstance(dset, entry.set_class):
                expected.add((kind, spec))
            cfg = cl.ExperimentConfig(set_spec, ["hedge"], spec, horizon=3,
                                      seed=1)
            try:
                res = cl.run_experiment(cfg)
            except cl.PreconditionError as err:
                assert (err.trial, err.round) == (0, 0)
                continue
            assert res.ledgers["hedge"][0].horizon == 3
            ran.add((kind, spec))
    assert ran == expected
    assert len(ran) == 16
    assert Counter(cls for cls, _ in ran) == {  # pinned apart from the table
        "MSet": 5, "MultitaskSet": 4, "DagPathSet": 4, "ExplicitSet": 3}


def test_readme_spec_section_is_the_spec_table():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    assert f"```\n{hz.spec_table()}\n```\n" in readme.read_text()


def test_run_help_prints_the_spec_table(capsys):
    with pytest.raises(SystemExit) as info:
        cli_main(["run", "--help"])
    assert info.value.code == 0
    assert hz.spec_table() in capsys.readouterr().out


def test_construction_error_keeps_the_trial(monkeypatch):
    import comblab.learners as ln

    def failing(*args, **kwargs):
        raise cl.SolverFailure("entropy projection did not reach tolerance",
                               residual=3e-9, iterations=100)

    monkeypatch.setattr(ln, "sinkhorn_flow_projection", failing)
    cfg = cl.ExperimentConfig("dag-layered:16:32", ["omd-entropy-dag"],
                              "gaussian", horizon=4, trials=2)
    with pytest.raises(cl.SolverFailure, match="trial 0, round 0") as info:
        cl.run_experiment(cfg)
    err = info.value
    assert (err.residual, err.iterations) == (3e-9, 100)
    assert (err.trial, err.round) == (0, 0)


@pytest.mark.parametrize("spec", ["dag-layered:64:4096",      # 4 layers
                                  "dag-layered:64:1048576"])  # 8 layers
def test_entropy_omd_runs_on_deep_layered_dags(spec):
    res = cl.run_experiment(cl.ExperimentConfig(
        spec, ["omd-entropy-dag"], spec, horizon=20, trials=2, seed=4))
    for led in res.ledgers["omd-entropy-dag"]:
        assert led.horizon == 20 and np.all(np.isfinite(led.loss))


def test_hedge_runs_on_a_dag_beyond_the_enumeration_cap():
    spec = "dag-layered:128:16777216"
    assert cl.build_set(spec).count() == 16_777_216
    res = cl.run_experiment(cl.ExperimentConfig(
        spec, ["hedge", "hedge-dag"], "gaussian", horizon=3, seed=2))
    hedge, dag = res.ledgers["hedge"][0], res.ledgers["hedge-dag"][0]
    assert hedge.horizon == 3
    assert np.array_equal(hedge.loss, dag.loss)


def test_mset_hedge_builds_its_selection_dag_once(monkeypatch):
    import comblab.domain as dm

    built = []
    build = dm.mset_selection_dag

    def counted(d, m):
        built.append((d, m))
        return build(d, m)

    monkeypatch.setattr(dm, "mset_selection_dag", counted)
    cl.run_experiment(cl.ExperimentConfig("mset:8:2", ["hedge"], "mset-lb",
                                          horizon=5, trials=3))
    assert built == [(8, 2)]


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_regret_of_hand_example():
    # Two experts, losses (1,0) then (0,1), learner always on expert 1.
    led = cl.RegretLedger("fixed", np.array([1.0, 0.0]),
                          np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    assert cl.regret_of(led, 1) == 1.0
    assert cl.regret_of(led, 2) == 0.0
    with pytest.raises(cl.RangeError):
        cl.regret_of(led, 3)
    with pytest.raises(cl.RangeError):
        cl.regret_of(led, 0)


def test_ledger_columns_consistent():
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge"], "universal",
                              horizon=50, trials=2, seed=3)
    res = cl.run_experiment(cfg)
    for led in res.ledgers["hedge"]:
        assert np.allclose(led.regret, led.cum_loss - led.cum_best, atol=1e-12)
        assert np.allclose(np.cumsum(led.loss), led.cum_loss, atol=1e-12)
        # cum_best is monotone in the prefix sense: it can only improve
        diffs = np.diff(led.cum_best)
        assert np.all(led.cum_best[:-1] >= led.cum_best[1:] - 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# CSV and determinism
# ---------------------------------------------------------------------------

def test_csv_schema_and_determinism(tmp_path):
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge", "omd-mset"], "mset-lb",
                              horizon=20, trials=3, seed=4, mode="sampled",
                              out=str(tmp_path / "a.csv"))
    res1 = cl.run_experiment(cfg)
    text1 = (tmp_path / "a.csv").read_bytes()
    cfg2 = cl.ExperimentConfig("mset:6:2", ["hedge", "omd-mset"], "mset-lb",
                               horizon=20, trials=3, seed=4, mode="sampled",
                               out=str(tmp_path / "b.csv"))
    cl.run_experiment(cfg2)
    text2 = (tmp_path / "b.csv").read_bytes()
    assert text1 == text2
    lines = text1.decode().splitlines()
    assert lines[0] == "trial,t,learner,loss,cum_loss,cum_best,regret"
    assert len(lines) == 1 + 3 * 2 * 20
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "hedge"
    float(first[3])  # numeric fields parse


def test_summary_json_shape():
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge"], "constant:zero",
                              horizon=5, trials=2, seed=0)
    res = cl.run_experiment(cfg)
    blob = json.loads(res.summary_json())
    assert set(blob["hedge"]) == {"mean_final_regret", "std", "min", "max",
                                  "trials"}


# ---------------------------------------------------------------------------
# iterate equivalence
# ---------------------------------------------------------------------------

def test_equivalence_single_path_zero_gap():
    dag = chain_dag(3)
    stream = cl.ConstantStream(np.array([0.2, -0.1, 0.3]), 10)
    rep = cl.check_iterate_equivalence(dag, stream, 0.5, 10, tol=1e-12)
    assert rep.passed and rep.max_gap <= 1e-12


def test_equivalence_diamond_random_stream():
    dag = diamond_dag()
    stream = cl.GaussianFeasibleStream(cl.DagPathSet(dag), 50, RngStream(6, 0))
    rep = cl.check_iterate_equivalence(dag, stream, 0.3, 50, tol=1e-6)
    assert rep.passed
    assert rep.gaps.shape == (50,)


def test_equivalence_solver_failure_propagates():
    dag = diamond_dag()
    stream = cl.ConstantStream(np.array([0.5, 0.0, 0.5, 0.0]), 3)
    import comblab.proximal as prox

    orig = prox.flow_prox_newton

    def broken(*args, **kwargs):
        raise cl.SolverFailure("injected failure", residual=1.0)

    import comblab.learners as ln
    ln.flow_prox_newton = broken
    try:
        with pytest.raises(cl.SolverFailure):
            cl.check_iterate_equivalence(dag, stream, 0.5, 3)
    finally:
        ln.flow_prox_newton = orig


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_props(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    out = tmp_path / "out.csv"
    cfgfile.write_text(
        f"set=mset:6:2\nlearner=hedge\nadversary=constant:zero\nT=5\n"
        f"trials=1\nseed=0\nout={out}\n")
    assert cli_main(["run", str(cfgfile)]) == 0
    captured = capsys.readouterr()
    assert "mean_final_regret" in captured.out
    assert out.exists()


def test_cli_equiv_check(tmp_path, capsys):
    dagfile = tmp_path / "g.dag"
    dagfile.write_text("dag 4 4 0 3\n0 1\n0 2\n1 3\n2 3\n")
    assert cli_main(["equiv-check", str(dagfile), "--T", "10"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_props_scope(tmp_path, capsys):
    assert cli_main(["props", "--scope", "harness"]) == 0
    out = capsys.readouterr().out
    assert "harness/" in out and "domain/" not in out


# ---------------------------------------------------------------------------
# property suite plumbing
# ---------------------------------------------------------------------------

def test_hedge_killer_defaults_to_first_learner_rate():
    base = dict(horizon=16, trials=1, seed=0)
    implicit = cl.run_experiment(cl.ExperimentConfig(
        "mset:8:2", ["hedge:eta=0.77"], "hedge-killer", **base))
    explicit = cl.run_experiment(cl.ExperimentConfig(
        "mset:8:2", ["hedge:eta=0.77"], "hedge-killer:eta=0.77", **base))
    a = implicit.ledgers["hedge:eta=0.77"][0]
    b = explicit.ledgers["hedge:eta=0.77"][0]
    assert np.array_equal(a.loss, b.loss)


def test_learners_are_built_once_per_trial(monkeypatch):
    import comblab.harness as hz

    built = []

    def counted(*args, **kwargs):
        built.append(args[0])
        return cl.build_learner(*args, **kwargs)

    monkeypatch.setattr(hz, "build_learner", counted)
    # hedge-killer is deterministic, so every trial must replay trial 0
    res = cl.run_experiment(cl.ExperimentConfig(
        "mset:8:2", ["hedge", "omd-mset"], "hedge-killer", horizon=24,
        trials=3))
    assert len(built) == 3 * 2
    for trials in res.ledgers.values():
        for led in trials[1:]:
            assert np.array_equal(led.loss, trials[0].loss)


def test_universal_finds_its_shattered_set_once(monkeypatch):
    import comblab.adversaries as adv
    import comblab.harness as hz

    cfg = cl.ExperimentConfig("mset:8:2", ["hedge", "omd-mset"], "universal",
                              horizon=40, trials=4, seed=3)
    searches = []
    find = adv.find_shattered_set

    def counted(*args, **kwargs):
        searches.append(1)
        return find(*args, **kwargs)

    monkeypatch.setattr(adv, "find_shattered_set", counted)
    shared = cl.csv_text(cl.run_experiment(cfg))
    assert len(searches) == 1
    dset = cl.MSet(8, 2)
    monkeypatch.setattr(hz, "build_adversary", lambda *a, **k: (
        lambda rng: adv.UniversalStream(dset, cfg.horizon, rng)))
    assert cl.csv_text(cl.run_experiment(cfg, decision_set=dset)) == shared
    assert len(searches) == 1 + cfg.trials


def test_adversary_seed_override_pins_stream():
    base = dict(horizon=12, trials=2)
    runs = [cl.run_experiment(cl.ExperimentConfig(
        "mset:6:2", ["hedge"], "mset-lb:seed=77", seed=s, **base))
        for s in (1, 2)]
    for a, b in zip(runs[0].ledgers["hedge"], runs[1].ledgers["hedge"]):
        assert np.array_equal(a.loss, b.loss)
    # trial index still varies the pinned stream
    assert not np.array_equal(runs[0].ledgers["hedge"][0].loss,
                              runs[0].ledgers["hedge"][1].loss)


def test_property_scope_filter_exact():
    results = cl.run_property_suite(scope="regularizers")
    assert results and all(r.scope == "regularizers" for r in results)


def test_hedge_tripwire_fires_on_corrupt_policy():
    # A "Hedge" that always plays the losing expert must blow through the
    # classical bound and trip the harness consistency check.
    import comblab.learners as ln

    orig = ln.ExplicitHedge._compute_policy
    ln.ExplicitHedge._compute_policy = (
        lambda self: np.array([1.0, 0.0]))
    try:
        dset = cl.ExplicitSet([[1, 0], [0, 1]])
        cfg = cl.ExperimentConfig("explicit:<2>", ["hedge:eta=0.04"],
                                  "constant:zero", horizon=400, trials=1,
                                  seed=0)
        dummy = cl.build_adversary("constant:zero", dset, 400)

        class Fixed:
            def loss(self, t):
                return np.array([1.0, 0.0])

        import comblab.harness as hz
        saved = hz.build_adversary
        hz.build_adversary = lambda *a, **k: (lambda rng: Fixed())
        try:
            with pytest.raises(cl.InternalConsistencyError, match="tripwire"):
                cl.run_experiment(cfg, decision_set=dset)
        finally:
            hz.build_adversary = saved
    finally:
        ln.ExplicitHedge._compute_policy = orig


def test_injected_hessian_bug_is_caught():
    # Mutation check: corrupt the m-set Hessian and the strong-convexity
    # invariant must fail.
    import comblab.regularizers as rg
    orig = rg.MSetRegularizer.hessian_quadform
    rg.MSetRegularizer.hessian_quadform = (
        lambda self, x, z: 0.01 * orig(self, x, z))
    try:
        from comblab.properties import prop_mset_strong_convexity
        res = prop_mset_strong_convexity(0)
        assert not res.passed
    finally:
        rg.MSetRegularizer.hessian_quadform = orig
