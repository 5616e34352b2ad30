import json
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import comblab as cl
import comblab.harness as hz
from comblab.cli import main as cli_main
from comblab.instances import chain_dag, diamond_dag
from comblab.sampling import _NO_FLOW, RngStream


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
    ("set", "explicit:{tmp}/ragged.txt"),
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
    (tmp_path / "ragged.txt").write_text("1 0 1\n0 1\n")
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


def test_vertex_files_split_rows_on_any_whitespace(tmp_path):
    p = tmp_path / "tabs.txt"
    p.write_text("# three of the cube\n1\t0\t1\n0 \t1  1\n\n110\n")
    ex = cl.build_set(f"explicit:{p}")
    assert ex.vertices.tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]


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
    # a repeated key is an error, not the last value silently kept
    bad.write_text("set=mset:6:2\nlearner=hedge\nadversary=mset-lb\nT=40\n"
                   "learner = omd-mset\n")
    with pytest.raises(cl.PreconditionError,
                       match="config key learner is repeated"):
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

    def factory(rng):
        return cl.ConstantStream([1.0, 1.0, 0.0, 0.0], 5)

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

    infeasible = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    monkeypatch.setattr(hz, "build_adversary", lambda *a, **k: (
        lambda rng: cl.ConstantStream(infeasible, 4)))
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge"], "constant:zero",
                              horizon=4)
    with pytest.raises(cl.ValidationError, match="trial 0, round 1") as info:
        cl.run_experiment(cfg)
    err = info.value
    assert err.report is not None and err.report.value == 2.0
    assert (err.trial, err.round) == (0, 1)


@pytest.mark.parametrize("set_spec", ["mset:16:4", "multitask:2,3",
                                      "dag-layered:16:32"])
def test_wrong_width_stream_fails_validation_before_absorb(monkeypatch,
                                                           set_spec):
    # zero losses of 8 entries: every row has the wrong width
    absorbed = []
    monkeypatch.setattr(hz, "build_adversary", lambda *a, **k: (
        lambda rng: cl.ConstantStream(np.zeros(8), 4)))
    monkeypatch.setattr(cl.learners.Learner, "absorb",
                        lambda self, y: absorbed.append(len(y)))
    dim = cl.build_set(set_spec).dimension
    cfg = cl.ExperimentConfig(set_spec, ["hedge"], "constant:zero",
                              horizon=4, trials=2)
    with pytest.raises(cl.ValidationError,
                       match=f"trial 0, round 1: loss vector has 8 entries, "
                             f"the decision set {dim}") as info:
        cl.run_experiment(cfg)
    assert (info.value.trial, info.value.round) == (0, 1)
    assert not info.value.report.ok and absorbed == []


def test_each_loss_is_validated_once_per_round(monkeypatch):
    # a trial checks its T losses in one batched pass, before any absorb
    events = []
    validate_losses = cl.DecisionSet.validate_losses
    validate = cl.DecisionSet.validate_loss
    absorb = cl.learners.Learner.absorb

    def counting_rows(self, ys):
        events.append(len(ys))
        return validate_losses(self, ys)

    def counting(self, y):
        events.append(1)
        return validate(self, y)

    def absorbing(self, y):
        events.append("absorb")
        return absorb(self, y)

    monkeypatch.setattr(cl.DecisionSet, "validate_losses", counting_rows)
    monkeypatch.setattr(cl.DecisionSet, "validate_loss", counting)
    monkeypatch.setattr(cl.learners.Learner, "absorb", absorbing)
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge", "omd-mset"], "mset-lb",
                              horizon=15, trials=2)
    cl.run_experiment(cfg)
    assert events == 2 * ([15] + ["absorb"] * 2 * 15)
    events.clear()
    dag = diamond_dag()
    stream = cl.GaussianFeasibleStream(cl.DagPathSet(dag), 20, RngStream(6, 0))
    cl.check_iterate_equivalence(dag, stream, 0.3, 20)
    assert events.count(1) == 20 and events.count("absorb") == 40


@pytest.mark.parametrize("set_spec, adversary", [
    ("mset:8:2", "mset-lb"), ("mset:8:2", "hedge-killer"),
    ("mset:8:2", "universal"), ("multitask:2,3", "multitask-phases"),
    ("dag-layered:16:32", "dag-layered:16:32"), ("mset:8:2", "gaussian"),
    ("mset:8:2", "constant:zero")])
def test_each_round_asks_the_stream_for_its_loss_once(monkeypatch, set_spec,
                                                      adversary):
    rounds = Counter()
    for cls in cl.adversaries.LossStream.__subclasses__():
        def counted(self, t, loss=vars(cls)["loss"]):
            rounds[t] += 1
            return loss(self, t)
        monkeypatch.setattr(cls, "loss", counted)
    cfg = cl.ExperimentConfig(set_spec, ["hedge", "hedge:eta=0.5"], adversary,
                              horizon=12, trials=3, mode="sampled")
    cl.run_experiment(cfg)
    assert rounds == Counter({t: 3 for t in range(1, 13)})


@pytest.mark.parametrize("bad_round", [1, 3])
def test_a_bad_loss_fails_in_its_round(monkeypatch, bad_round):
    class BadAt(cl.adversaries.LossStream):  # zeros, but for one round
        def __init__(self, bad):
            super().__init__(len(bad), 5)
            self.losses[bad_round - 1] = bad

    absorbed = []
    monkeypatch.setattr(cl.learners.Learner, "absorb",
                        lambda self, y: absorbed.append(len(y)))
    for dset in (cl.MSet(8, 2), cl.MultitaskSet([2, 3]),
                 cl.DagPathSet(diamond_dag()), cl.instances.hypercube_set(3)):
        dim = dset.dimension
        nan = np.zeros(dim)
        nan[1] = np.nan
        for bad, message in (
                (np.zeros(dim + 1), f"loss vector has {dim + 1} entries, "
                                    f"the decision set {dim}"),
                (np.full(dim, 2.0), "loss vector with action-loss"),
                (nan, "loss vector with action-loss inf")):
            monkeypatch.setattr(hz, "build_adversary", lambda *a, **k: (
                lambda rng: BadAt(bad)))
            absorbed.clear()
            cfg = cl.ExperimentConfig("set", ["hedge"], "constant:zero",
                                      horizon=5, trials=2)
            # a stream of the wrong width fails in round 1, whatever its rows
            fails_in = bad_round if bad.size == dim else 1
            with pytest.raises(cl.ValidationError,
                               match=f"trial 0, round {fails_in}: {message}"):
                cl.run_experiment(cfg, decision_set=dset)
            assert absorbed == [dim] * (fails_in - 1)


def test_a_stream_build_error_is_round_0_and_comes_before_any_absorb(
        monkeypatch):
    class Failing(cl.adversaries.LossStream):
        def __init__(self):
            super().__init__(8, 5)
            raise cl.PreconditionError("no losses for this trial")

    absorbed = []
    monkeypatch.setattr(hz, "build_adversary",
                        lambda *a, **k: (lambda rng: Failing()))
    monkeypatch.setattr(cl.learners.Learner, "absorb",
                        lambda self, y: absorbed.append(len(y)))
    cfg = cl.ExperimentConfig("mset:8:2", ["hedge"], "constant:zero",
                              horizon=5)
    with pytest.raises(cl.PreconditionError,
                       match="trial 0, round 0: no losses for this trial") as info:
        cl.run_experiment(cfg)
    assert (info.value.trial, info.value.round) == (0, 0) and absorbed == []


def test_an_overflowing_running_sum_fails_in_one_line(tmp_path, capsys):
    # feasible losses whose running sum holds +inf and -inf from round 2;
    # m-set losses cannot overflow: every entry lies within [-3, 3]
    explicit = tmp_path / "pairs.txt"
    explicit.write_text("1100\n0011\n")
    chain = tmp_path / "chain.dag"
    chain.write_text("dag 3 2 0 2\n0 1\n1 2\n")
    for set_spec, learner, vector in (
            ("multitask:2,2", "hedge", "1e308 1e308 -1e308 -1e308"),
            (f"explicit:{explicit}", "hedge", "1e308 -1e308 1e308 -1e308"),
            (f"dag:{chain}", "hedge:eta=0.1", "1e308 -1e308")):
        lossfile = tmp_path / "loss.txt"
        lossfile.write_text(vector + "\n")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"set={set_spec}\nlearner={learner}\n"
                           f"adversary=constant:{lossfile}\nT=3\n")
        assert cli_main(["run", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("comblab: PreconditionError: trial 0, round 2: "
                                "the running loss sum is not finite\n")


def test_scipy_loads_only_where_it_is_used():
    code = (
        "import sys\n"
        "import comblab as cl\n"
        "spec = 'dag-layered:16:32'\n"
        "cl.run_experiment(cl.ExperimentConfig(spec, ['hedge-dag', "
        "'omd-dilated:numeric=1', 'omd-entropy-dag'], spec, horizon=5))\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "cl.build_learner('omd-mset', cl.MSet(8, 2), 5)\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules\n")
    src = str(pathlib.Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_reports_an_error_in_one_line(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("set=mset:6:2\nlearner=hedge\nadversary=mset-lb\n"
                       "T=abc\n")
    assert cli_main(["run", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("comblab: PreconditionError: config key T: "
                            "bad value 'abc'\n")
    bad_header = tmp_path / "bad_header.dag"
    bad_header.write_text("dag x 4 0 3\n0 1\n0 2\n1 3\n2 3\n")
    short_header = tmp_path / "short_header.dag"
    short_header.write_text("dag 4\n")
    for argv in (["run", str(tmp_path / "missing.cfg")],
                 ["equiv-check", str(tmp_path / "missing.dag")],
                 ["equiv-check", str(bad_header)],
                 ["equiv-check", str(short_header)]):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("comblab: PreconditionError: ")
        assert argv[1] in captured.err and captured.err.count("\n") == 1


def test_long_chain_fails_in_one_line_without_recursion(tmp_path, capsys):
    n_edges = 1200
    dagfile = tmp_path / "chain.dag"
    dagfile.write_text(f"dag {n_edges + 1} {n_edges} 0 {n_edges}\n"
                       + "".join(f"{i} {i + 1}\n" for i in range(n_edges)))
    cfgfile = tmp_path / "chain.cfg"
    cfgfile.write_text(f"set=dag:{dagfile}\nlearner=hedge:eta=0.1\n"
                       "adversary=universal\nT=10\n")
    assert cli_main(["run", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("comblab: ShatteringNotFound: trial 0, round 0: "
                            "no shattered index set of size 1\n")
    [path] = cl.DagPathSet(chain_dag(5000)).enumerate_vertices()
    assert path.tolist() == [1.0] * 5000


def test_out_in_a_missing_directory_fails_before_round_1(tmp_path, capsys):
    out = tmp_path / "nodir" / "x.csv"
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("set=mset:8:2\nlearner=hedge\nadversary=mset-lb\n"
                       f"T=20\nout={out}\n")
    assert cli_main(["run", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("comblab: PreconditionError: "
                            f"out={out}: no such directory\n")


def test_one_vertex_sets_fail_in_one_line(tmp_path, capsys):
    single = tmp_path / "single.dag"
    single.write_text("dag 1 0 0 0\n")  # the source is the sink
    chain = tmp_path / "chain.dag"
    chain.write_text("dag 3 2 0 2\n0 1\n1 2\n")  # one path
    failing = {(single, "hedge"): "set spec .*: invalid DAG: source is "
                                  "the sink",
               (chain, "hedge"): "trial 0, round 0: learner spec 'hedge': "
                                 "the decision set has one vertex",
               (chain, "omd-entropy-dag"): "the decision set has one vertex"}
    for (dagfile, learner), message in failing.items():
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"set=dag:{dagfile}\nlearner={learner}\n"
                           "adversary=gaussian\nT=5\n")
        assert cli_main(["run", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert re.search(message, captured.err)
    assert cli_main(["equiv-check", str(single)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("comblab: PreconditionError: invalid DAG: "
                            "source is the sink\n")
    # with the rates set, a chain runs as before
    cfgfile.write_text(f"set=dag:{chain}\nlearner=hedge:eta=0.2,"
                       "omd-entropy-dag:eta=0.3\nadversary=gaussian\nT=5\n")
    assert cli_main(["run", str(cfgfile)]) == 0
    assert cli_main(["equiv-check", str(chain), "--T", "5"]) == 0


def test_a_dag_source_or_sink_out_of_range_fails_in_one_line(tmp_path,
                                                             capsys):
    for ends, message in (("0 7", "sink 7"), ("0 5", "sink 5"),
                          ("-1 2", "source -1")):
        dagfile = tmp_path / "g.dag"
        dagfile.write_text(f"dag 3 2 {ends}\n0 1\n1 2\n")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"set=dag:{dagfile}\nlearner=hedge\n"
                           "adversary=gaussian\nT=5\n")
        assert cli_main(["run", str(cfgfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"comblab: PreconditionError: set spec "
                                f"'dag:{dagfile}': {message} out of range for "
                                f"3 vertices\n")


def test_dag_layered_builds_past_the_float_range(tmp_path):
    # the first candidate layer counts overflow (d0 / 2m) ** m as a float
    for spec, shape in (("dag-layered:4096:8192", (1, 2048)),
                        ("dag-layered:4096:1048576", (2, 1024)),
                        ("dag-layered:8192:16777216", (2, 2048))):
        _, d, n_paths = spec.split(":")
        meta = cl.layered_dag(int(d), int(n_paths))[2]
        assert (meta["layers"], meta["width"]) == shape
        assert cl.build_set(spec).dimension == int(d)
    # path budgets past the float range: (8192 / 2048) ** 1024 == 2 ** 2048
    assert cl.layered_dag(8192, 2 ** 3000)[2]["layers"] == 1024
    assert cl.layered_dag(8192, 4 ** 1024 - 1)[2]["layers"] == 1023
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("set=dag-layered:4096:8192\nlearner=hedge\n"
                       "adversary=dag-layered:4096:8192\nT=5\n")
    assert cli_main(["run", str(cfgfile)]) == 0


def test_dag_layered_adversary_needs_its_own_graph(tmp_path):
    def write(name, dag):
        path = tmp_path / name
        path.write_text(f"dag {dag.n_vertices} {dag.n_edges} {dag.source} "
                        f"{dag.sink}\n"
                        + "".join(f"{u} {v}\n" for u, v in dag.edges))
        return f"dag:{path}"

    def run(set_spec):
        return cl.run_experiment(cl.ExperimentConfig(
            set_spec, ["hedge"], "dag-layered:16:32", horizon=50, seed=0))

    # as many edges as the layered graph, but all parallel
    parallel = write("parallel.dag", cl.Dag(2, [(0, 1)] * 16, 0, 1))
    with pytest.raises(cl.PreconditionError, match="does not match") as info:
        run(parallel)
    assert (info.value.trial, info.value.round) == (0, 0)
    same = write("layered.dag", cl.layered_dag(16, 32)[0])
    same = cl.csv_text(run(same)) == cl.csv_text(run("dag-layered:16:32"))
    assert same  # not the strings: a diff of two ledgers takes minutes


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


@pytest.mark.parametrize("spec", ["multitask:8,8,8,8,8,8,8,8",
                                  "dag-layered:128:16777216"])
def test_universal_past_the_enumeration_cap_fails_before_round_1(spec):
    cfg = cl.ExperimentConfig(spec, ["hedge"], "universal", horizon=3, seed=1)
    with pytest.raises(cl.PreconditionError,
                       match="16777216, past ENUMERATION_CAP = 1000000") as info:
        cl.run_experiment(cfg)
    assert (info.value.trial, info.value.round) == (0, 0)


# ---------------------------------------------------------------------------
# Hedge planned from the trial's prefix sums
# ---------------------------------------------------------------------------

def hops_dag():
    """Two s-t paths of one and two hops: 0-1-2 by edges 0 and 2, and the
    edge 0-2, second of the source's out-edges."""
    return cl.Dag(3, [(0, 1), (0, 2), (1, 2)], 0, 2)


_SETS = {"dag:<diamond>": diamond_dag, "dag:<hops>": hops_dag}


def _unplanned(monkeypatch):
    monkeypatch.setattr(cl.PathHedge, "plan",
                        lambda self, cum, shared=None: None)


@pytest.mark.parametrize("mode", ["expected", "sampled"])
@pytest.mark.parametrize("horizon", [1, 511, 512, 513, 1100])
@pytest.mark.parametrize("spec, learners", [
    ("dag-layered:64:4096", ["hedge-dag", "omd-dilated", "hedge:eta=0.1"]),
    ("multitask:2,4,8", ["hedge", "hedge:eta=0.3"]),
    ("dag-layered:256:65536", ["hedge-dag"]),  # 256 rounds a chunk
    ("dag:<diamond>", ["hedge-dag", "omd-dilated:numeric=1"]),
    ("dag:<hops>", ["hedge-dag", "omd-dilated"])])
def test_planned_hedge_csv_is_that_of_the_per_round_learner(
        monkeypatch, spec, learners, horizon, mode):
    dset = cl.DagPathSet(_SETS[spec]()) if spec in _SETS else None
    cfg = cl.ExperimentConfig(spec, learners, "gaussian", horizon=horizon,
                              trials=2, seed=16, mode=mode)
    planned = cl.csv_text(cl.run_experiment(cfg, decision_set=dset))
    _unplanned(monkeypatch)
    same = planned == cl.csv_text(cl.run_experiment(cfg, decision_set=dset))
    assert same  # not the strings: a diff of two ledgers takes minutes


class _ZeroUniforms:
    """A generator whose every uniform is 0."""

    @staticmethod
    def random(size=None):
        return 0.0 if size is None else np.zeros(size)


def _sampler_streams(monkeypatch, generator=None):
    """The learners' sampler streams that ``run_experiment`` builds, each
    drawing from ``generator`` when it is given."""
    streams = []

    class Stream(RngStream):
        def __init__(self, seed, *key):
            super().__init__(seed, *key)
            if key[1] > 0:  # (trial, 0) is the adversary's
                streams.append(self)
                if generator is not None:
                    self.generator = generator

    monkeypatch.setattr(hz, "RngStream", Stream)
    return streams


@pytest.mark.parametrize("spec", ["dag-layered:64:4096", "multitask:2,4,8",
                                  "dag:<hops>", "dag-layered:256:65536"])
def test_a_planned_trial_leaves_each_sampler_where_the_per_round_one_does(
        monkeypatch, spec):
    dset = (cl.DagPathSet(_SETS[spec]()) if spec in _SETS
            else cl.build_set(spec))
    # the last two learners share one plan, and each draws from it
    cfg = cl.ExperimentConfig(
        spec, ["hedge", "hedge:eta=0.3", "hedge:eta=0.30"], "gaussian",
        horizon=600, trials=2, seed=17, mode="sampled")
    nexts = []
    for plan in (True, False):
        if not plan:
            _unplanned(monkeypatch)
        streams = _sampler_streams(monkeypatch)
        cl.run_experiment(cfg, decision_set=dset)
        assert len(streams) == 6
        nexts.append([s.generator.random() for s in streams])
    assert nexts[0] == nexts[1]


def test_planned_draws_in_thin_rounds_are_those_of_sample_path():
    # at this rate most rounds have edge marginals below _NO_FLOW, so the
    # draws take the thin-row branch and mark starved vertices dead
    dset = cl.build_set("dag-layered:16:32")
    losses = [cl.GaussianFeasibleStream(dset, 300, RngStream(18, 0)).loss(t)
              for t in range(1, 301)]
    planned, solo = cl.PathHedge(dset, 40.0), cl.PathHedge(dset, 40.0)
    planned.plan(np.cumsum(losses, axis=0) + 0.0)
    ours, theirs = RngStream(18, 1), RngStream(18, 1)
    thin = 0
    for y in losses:
        assert np.array_equal(planned.sample(ours), solo.sample(theirs))
        thin += solo._marg.min() <= _NO_FLOW
        for learner in (planned, solo):
            learner.absorb(y)
    assert thin > 250
    assert ours.generator.random() == theirs.generator.random()


def test_a_planned_draw_fails_at_a_starved_vertex_as_the_per_round_one(
        monkeypatch, tmp_path):
    # after round 1 the path 0-1-2 weighs e^-40 against 1 for edge 0-2;
    # a uniform of 0 takes edge 0-1, and vertex 1's outflow is below
    # _NO_FLOW, so the draw stops there in round 2
    loss = tmp_path / "loss.txt"
    loss.write_text("1 0 0\n")
    cfg = cl.ExperimentConfig("dag:<hops>", ["hedge-dag:eta=40"],
                              f"constant:{loss}", horizon=4, mode="sampled")
    errors = []
    for plan in (True, False):
        if not plan:
            _unplanned(monkeypatch)
        _sampler_streams(monkeypatch, _ZeroUniforms())
        with pytest.raises(cl.DegenerateVertex) as info:
            cl.run_experiment(cfg, decision_set=cl.DagPathSet(hops_dag()))
        errors.append((str(info.value), info.value.trial, info.value.round))
    assert errors[0] == errors[1] == (
        "trial 0, round 2: no outgoing flow at vertex 1", 0, 2)


def test_a_planned_graded_draw_fails_at_a_starved_vertex_as_the_per_round_one(
        monkeypatch, tmp_path):
    # every path takes two hops.  After round 1 the path 0-1-3 weighs
    # e^-40 against 1 for 0-2-3; a uniform of 0 takes edge 0-1, and vertex
    # 1's outflow is below _NO_FLOW, so the draw stops there in round 2
    graded = cl.Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    loss = tmp_path / "loss.txt"
    loss.write_text("1 0 0 0\n")
    cfg = cl.ExperimentConfig("dag:<graded>", ["hedge-dag:eta=40"],
                              f"constant:{loss}", horizon=4, mode="sampled")
    errors = []
    for plan in (True, False):
        if not plan:
            _unplanned(monkeypatch)
        _sampler_streams(monkeypatch, _ZeroUniforms())
        with pytest.raises(cl.DegenerateVertex) as info:
            cl.run_experiment(cfg, decision_set=cl.DagPathSet(graded))
        errors.append((str(info.value), info.value.trial, info.value.round))
    assert errors[0] == errors[1] == (
        "trial 0, round 2: no outgoing flow at vertex 1", 0, 2)


def test_a_planned_draw_takes_each_chunk_from_one_stream():
    dset = cl.build_set("dag-layered:16:32")
    losses = [cl.GaussianFeasibleStream(dset, 8, RngStream(19, 0)).loss(t)
              for t in range(1, 9)]
    learner = cl.PathHedge(dset, 0.2)
    learner.plan(np.cumsum(losses, axis=0) + 0.0)
    ours = RngStream(19, 1)
    learner.sample(ours)
    learner.absorb(losses[0])
    with pytest.raises(cl.PreconditionError, match="one stream"):
        learner.sample(RngStream(19, 1))
    learner.sample(ours)  # its own stream still draws


def test_batched_weight_pushing_is_the_one_column_pass_bit_for_bit():
    rng = RngStream(16, 1).generator
    for dset in (cl.build_set("dag-layered:64:4096"),
                 cl.build_set("multitask:2,4,8"), cl.DagPathSet(diamond_dag())):
        dag, _ = dset.path_embedding
        log_w = -np.cumsum(rng.normal(size=(dag.n_edges, 40)), axis=1)
        batched = cl.weight_pushing_marginals(dag, log_w)
        for j in range(log_w.shape[1]):
            assert np.array_equal(batched[:, j],
                                  cl.weight_pushing_marginals(dag, log_w[:, j]))


def _count_calls(monkeypatch, name="weight_pushing_marginals"):
    """Shapes of the array passed to ``comblab.learners.<name>(dag, a,
    ...)``."""
    import comblab.learners as ln

    calls = []
    fn = getattr(ln, name)

    def counted(dag, values, *rest):
        calls.append(np.shape(values))
        return fn(dag, values, *rest)

    monkeypatch.setattr(ln, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["expected", "sampled"])
def test_learners_of_one_rate_share_one_pass_per_chunk(monkeypatch, mode):
    import comblab.learners as ln

    calls = _count_calls(monkeypatch)
    draws = _count_calls(monkeypatch, "draw_paths")
    built, plan = [], ln.HedgePlan
    monkeypatch.setattr(ln, "HedgePlan",
                        lambda *args: built.append(1) or plan(*args))
    cl.run_experiment(cl.ExperimentConfig(
        "dag-layered:256:65536", ["hedge-dag", "omd-dilated"], "gaussian",
        horizon=600, trials=2, mode=mode))
    # 2 ** 16 entries over 256 edges: ceil(601 / 256) = 3 passes per trial,
    # not 2 * 600; the last one also holds the policy after round 600
    assert calls == [(256, 256), (256, 256), (256, 89)] * 2
    # one plan per trial, built by the first learner only
    assert len(built) == 2
    # and, only when they sample, one draw per learner and chunk, of the
    # rounds up to the last loss
    assert draws == ([(256, 256)] * 4 + [(88, 256)] * 2) * 2 * (
        mode == "sampled")


def test_a_sampled_run_of_mixed_hop_counts_draws_once_per_learner_and_chunk(
        monkeypatch):
    # hops_dag has paths of one and two hops; a chunk holds 2 ** 16 // 3
    # rounds, so each learner draws its whole trial in one call
    draws = _count_calls(monkeypatch, "draw_paths")
    cfg = cl.ExperimentConfig("dag:<hops>", ["hedge-dag", "omd-dilated"],
                              "gaussian", horizon=300, trials=2, seed=20,
                              mode="sampled")
    cl.run_experiment(cfg, decision_set=cl.DagPathSet(hops_dag()))
    assert draws == [(300, 3)] * 4


def test_learners_of_two_rates_make_two_plans(monkeypatch):
    calls = _count_calls(monkeypatch)
    cl.run_experiment(cl.ExperimentConfig(
        "dag-layered:16:32", ["hedge-dag", "hedge-dag:eta=0.1"], "gaussian",
        horizon=100))
    assert calls == [(16, 101), (16, 101)]


def test_a_planned_policy_is_read_only_and_shared_intact():
    dset = cl.build_set("dag-layered:16:32")
    losses = [cl.GaussianFeasibleStream(dset, 8, RngStream(16, 2)).loss(t)
              for t in range(1, 9)]
    planned = [cl.PathHedge(dset, 0.2) for _ in range(2)]
    plans = {}
    for learner in planned:
        learner.plan(np.cumsum(losses, axis=0) + 0.0, plans)
    solo = cl.PathHedge(dset, 0.2)
    for y in losses:
        policy = planned[0].propose()
        with pytest.raises(ValueError, match="read-only"):
            policy[0] = 1.0
        want = solo.step(y)
        assert np.array_equal(planned[1].propose(), want)
        assert np.array_equal(policy, want)
        for learner in planned:
            learner.absorb(y)
    assert np.array_equal(planned[0].propose(), solo.propose())  # round 9
    planned[0].absorb(losses[0])
    with pytest.raises(cl.PreconditionError, match="holds 8 losses"):
        planned[0].propose()


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

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

def test_csv_schema(tmp_path):
    cfg = cl.ExperimentConfig("mset:6:2", ["hedge", "omd-mset"], "mset-lb",
                              horizon=20, trials=3, seed=4, mode="sampled",
                              out=str(tmp_path / "a.csv"))
    cl.run_experiment(cfg)
    lines = (tmp_path / "a.csv").read_text().splitlines()
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


def test_dag_minimax_demo_certifies_its_equal_columns():
    # hedge-dag and omd-dilated both run PathHedge, so the demo's two
    # columns are equal by construction; the numeric KKT route certifies
    # the equality within the checker's default tolerance.
    res = cl.lb_demo("dag-minimax", seed=1010)
    measured = res["measured"]
    assert measured["hedge-dag"] == measured["omd-dilated"]
    assert 0.0 < res["iterate_equivalence_max_gap"] <= 1e-6


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
    for horizon in ("0", "-1"):
        assert cli_main(["equiv-check", str(dagfile), "--T", horizon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("comblab: PreconditionError: need horizon "
                                f">= 1, got {horizon}\n")
    stream = cl.ConstantStream(np.zeros(4), 5)
    with pytest.raises(cl.PreconditionError, match="got 0"):
        cl.check_iterate_equivalence(cl.load_dag(str(dagfile)), stream, 0.3, 0)
    # a negative value in exponent form, as a separate token, reaches the
    # value's own check rather than stopping in argparse
    for option, value, message in (
            ("--tol", "-1e-9", "tolerance must be finite and non-negative, "
                               "got -1e-09"),
            ("--eta", "-1e-3", "learning rate must be positive and finite")):
        assert cli_main(["equiv-check", str(dagfile), "--T", "3",
                         option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"comblab: PreconditionError: {message}\n"


def test_cli_props_scope(tmp_path, capsys):
    assert cli_main(["props", "--scope", "harness"]) == 0
    out = capsys.readouterr().out
    assert "harness/" in out and "domain/" not in out


def test_cli_rejects_a_negative_seed_in_one_line(tmp_path, capsys):
    dagfile = tmp_path / "g.dag"
    dagfile.write_text("dag 4 4 0 3\n0 1\n0 2\n1 3\n2 3\n")
    for argv, key in ((["equiv-check", str(dagfile), "--seed", "-1"], "(0,)"),
                      (["props", "--seed", "-1"], "()")):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("comblab: PreconditionError: seed and key must "
                                f"be non-negative, got seed -1, key {key}\n")
    with pytest.raises(cl.PreconditionError, match="got seed 3, key \\(0, -2\\)"):
        RngStream(3, 0).substream(-2)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_cli_equiv_check_rejects_a_bad_tolerance_before_round_1(
        tmp_path, capsys, monkeypatch, tol):
    dagfile = tmp_path / "g.dag"
    dagfile.write_text("dag 4 4 0 3\n0 1\n0 2\n1 3\n2 3\n")
    monkeypatch.setattr(cl.DilatedOmd, "absorb", None)  # round 1 would fail
    assert cli_main(["equiv-check", str(dagfile), "--T", "3",
                     f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("comblab: PreconditionError: tolerance must be "
                            f"finite and non-negative, got {float(tol)!r}\n")


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
    same = cl.csv_text(cl.run_experiment(cfg, decision_set=dset)) == shared
    assert same  # not the strings: a diff of two ledgers takes minutes
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

        import comblab.harness as hz
        saved = hz.build_adversary
        hz.build_adversary = lambda *a, **k: (
            lambda rng: cl.ConstantStream([1.0, 0.0], 400))
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
