import numpy as np
import pytest

import comblab as cl
import comblab.properties as props
from comblab.properties import PROPERTIES, PropertyResult, run_property_suite

SCOPES = ["domain", "regularizers", "learners", "sampling", "adversaries",
          "harness"]


@pytest.fixture(scope="module")
def suite():
    """One run of the whole suite, read by every test below."""
    return run_property_suite(seed=0)


def test_full_property_suite_passes(suite):
    assert len(suite) == len(PROPERTIES)
    failed = [r.line() for r in suite if not r.passed]
    assert not failed, "\n".join(failed)


@pytest.mark.parametrize("scope", SCOPES)
def test_every_scope_is_populated(scope, suite, monkeypatch):
    # one result per registry entry, in order: select by registered scope
    results = [r for (s, _), r in zip(PROPERTIES, suite) if s == scope]
    assert results
    assert all(r.scope == scope for r in results)
    # the scope filter runs exactly the entries of its scope, in order
    ran = []

    def stub(name, stub_scope):
        def prop(seed):
            ran.append(name)
            return PropertyResult(name, stub_scope, 1, 0.0, True)
        return prop

    entries = [(s, stub(f"{s}-{i}", s)) for i in range(2) for s in SCOPES]
    monkeypatch.setattr(props, "PROPERTIES", entries)
    filtered = run_property_suite(scope=scope, seed=0)
    assert ran == [f"{scope}-0", f"{scope}-1"]
    assert [r.name for r in filtered] == ran
    assert all(r.scope == scope for r in filtered)


def test_results_carry_margins_and_counts(suite):
    results = [r for (s, _), r in zip(PROPERTIES, suite) if s == "domain"]
    assert results
    assert all(r.scope == "domain" for r in results)
    for r in results:
        assert r.samples > 0
        assert isinstance(r.worst_margin, float)
        assert "domain/" in r.line()


@pytest.mark.parametrize("factor, small", [(0.5, True), (2.0, False)])
def test_hedge_killer_closed_form_is_hedges_loss_and_no_other(factor, small):
    d, m, horizon = 16, 4, 256
    eta = factor * cl.hedge_killer_base_rate(d, m, horizon)
    stream = cl.HedgeKillerStream(d, m, horizon, eta)
    assert stream.small_branch == small
    closed = props.hedge_killer_closed_form(stream)
    for rate, holds in ((eta, True), (1.01 * eta, False)):
        spec = f"hedge:eta={rate}"
        res = cl.run_experiment(cl.ExperimentConfig(
            f"mset:{d}:{m}", [spec], f"hedge-killer:eta={eta}",
            horizon=horizon))
        gap = np.max(np.abs(res.ledgers[spec][0].loss - closed))
        assert (gap <= 1e-12) == holds, gap
