"""Self-tests of the benchmark's output checks.

Each workload, shrunk to a few rounds, must pass every check when traced,
and each check must reject an output corrupted by as little as 1e-6.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import srcpath

cl = srcpath.load_comblab()

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "mset-omd": {"HORIZON": 16, "TRIALS": 2},
    "mset-hedge": {"HORIZON": 64},
    "dag-sampled": {"HORIZON": 16, "TRIALS": 1},
    "dag-flow-solvers": {"HORIZON": 4},
}


def traced_operation(workload, index):
    tracer = tracing.Tracer()
    root = tracer.wrap(tracing.ROOT_SPAN, cl.run_experiment)
    with tracing.installed(tracer, cl):
        result = root(workload.configs[index])
    return result, tracer


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for name, sizes in SMALL.items():
        cls = type(f"Small{name}", (workloads.WORKLOADS[name],), sizes)
        wl = cls(cl, seed=5, out_dir=tmp_path_factory.mktemp(name))
        refs = wl.reference()
        out[name] = (wl, refs, [traced_operation(wl, i)
                                for i in range(len(wl.configs))])
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_outputs_pass_every_check(runs, name):
    wl, refs, ops = runs[name]
    for i, (result, tracer) in enumerate(ops):
        assert wl.check_result(i, result, refs[i]) == []
        assert wl.check_trace(i, result, refs[i], tracer) == []
        assert cl.csv_text(result) == cl.csv_text(cl.run_experiment(wl.configs[i]))


def test_tracing_is_removed_after_the_operation(runs):
    assert cl.learners.mset_prox is cl.proximal.mset_prox
    assert cl.learners.Learner.propose.__qualname__ == "Learner.propose"
    assert cl.domain.DecisionSet.validate_loss.__qualname__ == \
        "DecisionSet.validate_loss"


def test_spans_nest_and_share_their_round(runs):
    _, _, ops = runs["mset-omd"]
    spans = ops[0][1].spans
    assert spans[0][0] == tracing.ROOT_SPAN and spans[0][3] == -1
    for name, start, end, parent, trial, t in spans[1:]:
        assert spans[parent][1] <= start <= end <= spans[parent][2]
        if name == "proximal.mset_prox":
            assert spans[parent][0] == "learners.absorb"
            assert spans[parent][4:] == [trial, t] and t >= 1


def _moved(array, index, by=1e-6):
    out = np.array(array, dtype=float)
    out[index] += by
    return out


def test_ledger_check_rejects_a_moved_loss(runs):
    wl, refs, ops = runs["mset-omd"]
    led = ops[0][0].ledgers["omd-mset"][0]
    best = refs[0].trials[0][1]
    args = ("l", led.loss, led.cum_loss, led.cum_best, led.regret, best)
    assert checks.ledger_failures(*args) == []
    for k in range(1, 5):
        bad = list(args)
        bad[k] = _moved(args[k], 7)
        assert checks.ledger_failures(*bad), f"argument {k} moved unnoticed"
    assert checks.ledger_failures(*args[:5], _moved(best, 3))


def test_charged_loss_check_rejects_a_moved_loss(runs):
    wl, refs, ops = runs["mset-omd"]
    result, tracer = ops[1]
    corrupt = replace(result.ledgers["omd-mset"][0])
    corrupt.loss = _moved(corrupt.loss, 4)
    corrupt.cum_loss = np.cumsum(corrupt.loss)
    corrupt.regret = corrupt.cum_loss - corrupt.cum_best
    ledgers = dict(result.ledgers, **{"omd-mset": [corrupt]
                                       + result.ledgers["omd-mset"][1:]})
    bad = replace(result, ledgers=ledgers)
    assert wl.check_result(1, bad, refs[1]) == []
    assert wl.check_trace(1, bad, refs[1], tracer)


def test_mset_best_is_the_brute_force_minimum():
    rng = np.random.default_rng(0)
    losses = rng.uniform(-0.25, 0.25, size=(6, 8))
    d, m = 8, 3
    import itertools
    subsets = np.array([[1.0 if i in c else 0.0 for i in range(d)]
                        for c in itertools.combinations(range(d), m)])
    brute = (np.cumsum(losses, axis=0) @ subsets.T).min(axis=1)
    assert np.allclose(checks.mset_best(losses, m), brute, atol=1e-14)


def test_layered_best_and_paths_match_enumeration():
    dag, _, _ = cl.layered_dag(16, 32)
    layers = checks.layered_detours(dag.edges, dag.source, dag.sink)
    paths = checks.path_incidence(layers, dag.n_edges)
    enumerated = np.array(dag.enumerate_paths())
    assert sorted(map(tuple, paths)) == sorted(map(tuple, enumerated))
    losses = np.random.default_rng(1).uniform(-0.1, 0.1, size=(5, dag.n_edges))
    brute = (np.cumsum(losses, axis=0) @ paths.T).min(axis=1)
    assert np.allclose(checks.layered_best(losses, layers), brute, atol=1e-14)


def test_layered_detours_rejects_other_graphs():
    diamond = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]
    with pytest.raises(ValueError):
        checks.layered_detours(diamond, 0, 3)


def test_closed_form_rejects_a_moved_hedge_loss(runs):
    wl, refs, ops = runs["mset-hedge"]
    for i, (result, _) in enumerate(ops):
        eta = wl.rates[i]
        small = eta <= workloads.hedge_killer_base_rate(wl.D, wl.M, wl.HORIZON)
        expected, failures = checks.hedge_killer_losses(
            refs[i].trials[0][0], wl.D, wl.M, eta, small)
        loss = result.ledgers[f"hedge:eta={eta}"][0].loss
        assert failures == []
        assert checks.closed_form_failures("h", loss, expected) == []
        assert checks.closed_form_failures("h", _moved(loss, 9), expected)
    assert {eta <= workloads.hedge_killer_base_rate(wl.D, wl.M, wl.HORIZON)
            for eta in wl.rates} == {True, False}


def test_closed_form_rejects_the_wrong_branch(runs):
    wl, refs, _ = runs["mset-hedge"]
    _, failures = checks.hedge_killer_losses(refs[0].trials[0][0], wl.D, wl.M,
                                             wl.rates[0], small_branch=False)
    assert failures


def test_regret_bounds_reject_a_large_regret():
    assert checks.mset_omd_bound_failures("m", 10.0, 128, 16, 4) == []
    assert checks.mset_omd_bound_failures("m", 1e3, 128, 16, 4)
    assert checks.hedge_bound_failures("h", 1.0, math.log(10), 0.5, 100) == []
    assert checks.hedge_bound_failures("h", 30.0, math.log(10), 0.5, 100)


def test_prox_check_rejects_a_moved_iterate(runs):
    _, _, ops = runs["mset-omd"]
    x_old, step, x_new, m = ops[0][1].prox_steps[10]
    assert checks.mset_prox_failures("p", x_old, step, x_new, m) == []
    shifted = _moved(_moved(x_new, 0), 1, by=-1e-6)   # same sum
    assert checks.mset_prox_failures("p", x_old, step, shifted, m)
    assert checks.mset_iterate_failures("p", _moved(x_new, 2), m)
    assert checks.mset_iterate_failures("p", np.where(x_new == x_new.max(), 0.0,
                                                      x_new), m)


def _dag_structure(runs, name):
    wl, refs, ops = runs[name]
    dag = refs[0].decision_set.dag
    inc, paths = wl.structure(refs[0])
    return wl, refs, ops, dag, inc, paths


def test_flow_and_path_checks_reject_points_off_the_polytope(runs):
    _, _, ops, dag, inc, _ = _dag_structure(runs, "dag-sampled")
    _, tracer = ops[0]
    policy = next(iter(tracer.policies.values()))
    vertex = next(iter(tracer.samples.values()))
    s, t = dag.source, dag.sink
    assert checks.unit_flow_failures("f", policy, inc, s, t) == []
    assert checks.unit_flow_failures("f", _moved(policy, 3), inc, s, t)
    assert checks.path_failures("p", vertex, inc, s, t) == []
    flipped = vertex.copy()
    flipped[np.flatnonzero(vertex)[0]] = 0.0
    assert checks.path_failures("p", flipped, inc, s, t)
    assert checks.path_failures("p", _moved(vertex, 0, by=0.5), inc, s, t)


def test_path_hedge_check_rejects_a_moved_policy(runs):
    wl, refs, ops, _, _, paths = _dag_structure(runs, "dag-sampled")
    _, tracer = ops[0]
    losses = refs[0].trials[0][0]
    eta = math.sqrt(math.log(paths.shape[0]) / wl.HORIZON)
    policies = np.array([tracer.policies[("hedge-dag", 0, t)]
                         for t in range(1, wl.HORIZON + 1)])
    reference = checks.path_hedge_policies(paths, losses, eta)
    tol = checks.PATH_HEDGE_TOL
    assert checks.policy_gap_failures("h", policies, reference, tol) == []
    assert checks.policy_gap_failures("h", _moved(policies, (5, 2)), reference, tol)


def test_entropy_step_check_rejects_a_moved_iterate(runs):
    wl, refs, ops, _, inc, paths = _dag_structure(runs, "dag-flow-solvers")
    _, tracer = ops[0]
    eta = math.sqrt(math.log(paths.shape[0]) * math.log(inc.shape[1]) / wl.HORIZON)
    x0 = tracer.policies[(wl.ENTROPY, 0, 1)]
    x1 = tracer.policies[(wl.ENTROPY, 0, 2)]
    y = refs[0].trials[0][0][0]
    assert checks.entropy_step_failures("e", x0, x1, y, eta, inc) == []
    assert checks.entropy_step_failures("e", x0, _moved(x1, 1), y, eta, inc)
    assert checks.entropy_step_failures("e", x0, x1, _moved(y, 1), eta, inc)


def test_csv_check_rejects_an_edited_file(runs):
    wl, _, ops = runs["dag-sampled"]
    result, _ = ops[0]
    text = cl.csv_text(result)
    assert checks.csv_failures("c", text, result.ledgers) == []
    row = text.split("\n")[7]
    fields = row.split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    assert checks.csv_failures("c", text.replace(row, ",".join(fields)),
                               result.ledgers)
    assert checks.csv_failures("c", text + "0,1,x,0,0,0,0\n", result.ledgers)
    assert checks.csv_failures("c", text.rstrip("\n"), result.ledgers)
