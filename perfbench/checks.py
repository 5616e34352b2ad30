"""Output checks, computed apart from comblab.

Every check takes plain numbers and arrays and returns a list of failure
messages; an empty list means the output passed.  Nothing here calls into
comblab, so a fault in the program cannot hide behind the same fault in its
check.  The tolerances are fixed here, never derived from the output under
test, and each is far below the 1e-6 corruption the self-tests plant.
"""

import itertools
import math
from collections import defaultdict

import numpy as np

#: ledger sums: the program adds the same numbers, possibly in another order
ARITH_TOL = 1e-9
#: per-round Hedge loss against its closed form (measured gap: 2e-15)
CLOSED_FORM_TOL = 1e-12
#: m-set iterates: cardinality (the solver's own target is 1e-12)
SUM_TOL = 1e-9
#: spread of g(x_new) - g(x_old) + eta*y over the uncapped coordinates
STATIONARITY_TOL = 1e-12
#: coordinates at least this close to 1 count as capped by the box
CAP_TOL = 1e-12
#: unit s-t flow conservation, as the program's own flow tolerance
FLOW_TOL = 1e-9
#: weight pushing against path Hedge over the enumerated paths
PATH_HEDGE_TOL = 1e-10
#: two learners whose iterates are equal by theorem (iterate equivalence)
EQUIVALENCE_TOL = 1e-12
#: numeric (KKT Newton) dilated entropy against path Hedge, criterion 1
NUMERIC_TOL = 1e-6
#: least-squares residual of the entropy projection's optimality condition
POTENTIAL_TOL = 1e-9


def _max_gap(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b), initial=0.0))


# ---------------------------------------------------------------------------
# regret ledgers
# ---------------------------------------------------------------------------

def ledger_failures(label, loss, cum_loss, cum_best, regret, best_ref):
    """``cum_loss`` is the running sum of ``loss``, ``cum_best`` equals the
    independently computed best-in-hindsight curve, and
    ``regret = cum_loss - cum_best``."""
    failures = []
    if len(loss) != len(best_ref):
        return [f"{label}: ledger has {len(loss)} rounds, expected {len(best_ref)}"]
    gap = _max_gap(cum_loss, np.cumsum(loss))
    if gap > ARITH_TOL:
        failures.append(f"{label}: cum_loss is not the running sum of loss "
                        f"(gap {gap:.3g})")
    gap = _max_gap(cum_best, best_ref)
    if gap > ARITH_TOL:
        failures.append(f"{label}: cum_best differs from the recomputed best "
                        f"(gap {gap:.3g})")
    gap = _max_gap(regret, np.asarray(cum_loss) - np.asarray(cum_best))
    if gap > ARITH_TOL:
        failures.append(f"{label}: regret is not cum_loss - cum_best "
                        f"(gap {gap:.3g})")
    return failures


def mset_best(losses, m):
    """Best m-subset value at every prefix: the m smallest prefix totals."""
    totals = np.cumsum(np.asarray(losses, dtype=float), axis=0)
    return np.partition(totals, m - 1, axis=1)[:, :m].sum(axis=1)


def layered_detours(edges, source, sink):
    """Two-hop detours of a layered DAG, one ``(k, 2)`` array per layer.

    Row ``j`` of a layer holds the edge ids (into the middle vertex, out of
    it).  Raises ``ValueError`` unless the graph is a chain of such bundles
    from ``source`` to ``sink`` that uses every edge.
    """
    into = defaultdict(list)
    out_of = defaultdict(list)
    for e, (u, v) in enumerate(edges):
        out_of[u].append(e)
        into[v].append(e)
    bundles = defaultdict(list)
    ends = defaultdict(set)
    for mid in set(into) | set(out_of):
        if mid in (source, sink) or len(into[mid]) != 1 or len(out_of[mid]) != 1:
            continue
        first, second = into[mid][0], out_of[mid][0]
        tail = edges[first][0]
        bundles[tail].append((first, second))
        ends[tail].add(edges[second][1])
    layers = []
    u = source
    while u != sink:
        if u not in bundles or len(ends[u]) != 1 or len(layers) > len(edges):
            raise ValueError(f"vertex {u} does not start one bundle of detours")
        layers.append(np.array(sorted(bundles[u]), dtype=int))
        u = next(iter(ends[u]))
    if sum(2 * len(layer) for layer in layers) != len(edges):
        raise ValueError("some edges lie on no detour")
    return layers


def layered_best(losses, layers):
    """Best s-t path value at every prefix: per layer, the cheapest detour."""
    totals = np.cumsum(np.asarray(losses, dtype=float), axis=0)
    return sum(np.min(totals[:, layer[:, 0]] + totals[:, layer[:, 1]], axis=1)
               for layer in layers)


def path_incidence(layers, n_edges):
    """Edge indicator of every s-t path of a layered DAG, one row per path."""
    rows = []
    for choice in itertools.product(*layers):
        x = np.zeros(n_edges)
        for first, second in choice:
            x[first] = x[second] = 1.0
        rows.append(x)
    return np.array(rows)


# ---------------------------------------------------------------------------
# regret bounds
# ---------------------------------------------------------------------------

def mset_omd_bound_failures(label, mean_final_regret, horizon, d, m):
    """Mean final regret of m-set mirror descent within sqrt(18Tm + 18T ln(d/m))."""
    bound = math.sqrt(18 * horizon * m + 18 * horizon * math.log(d / m))
    if not mean_final_regret <= bound:
        return [f"{label}: mean final regret {mean_final_regret:.6g} exceeds "
                f"the bound {bound:.6g}"]
    return []


def hedge_bound_failures(label, final_regret, log_count, eta, horizon):
    """Hedge's regret within ln|X|/eta + eta*T/2."""
    bound = log_count / eta + eta * horizon / 2.0
    if not final_regret <= bound:
        return [f"{label}: Hedge regret {final_regret:.6g} exceeds "
                f"ln|X|/eta + eta*T/2 = {bound:.6g}"]
    return []


# ---------------------------------------------------------------------------
# Hedge on the rate-targeted m-set stream
# ---------------------------------------------------------------------------

def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hedge_killer_losses(losses, d, m, eta, small_branch):
    """Hedge's expected loss in every round of the two-branch m-set stream.

    Small-rate branch: every round loads ``1/m`` on the first m coordinates,
    so a subset's weight depends only on its overlap r with them, and the
    loss is ``y_0`` times the mean overlap under the weights
    ``C(m,r) C(d-m,m-r) exp(-eta L r)``, with L the cumulative loss of one
    loaded coordinate.  Large-rate branch: only coordinate 0 is loaded, and
    the loss is ``p_0 y_0`` with ``p_0 = 1/(1 + ((d-m)/m) exp(eta L_0))``.

    Returns ``(per_round_loss, failures)``; the failures name rounds whose
    loss vector does not have the branch's shape.
    """
    losses = np.asarray(losses, dtype=float)
    y0 = losses[:, 0]
    before = np.concatenate(([0.0], np.cumsum(y0)[:-1]))
    shape = np.zeros_like(losses)
    if small_branch:
        shape[:, :m] = 1.0 / m
        overlap = np.arange(max(0, 2 * m - d), m + 1)
        log_count = np.array([_log_comb(m, r) + _log_comb(d - m, m - r)
                              for r in overlap])
        logits = log_count[None, :] - eta * before[:, None] * overlap[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        mean_overlap = weights @ overlap / weights.sum(axis=1)
        expected = y0 * mean_overlap
    else:
        shape[:, 0] = y0
        z = eta * before + math.log((d - m) / m)
        expected = np.exp(-np.logaddexp(0.0, z)) * y0
    bad = np.flatnonzero(np.any(losses != shape, axis=1))
    failures = []
    if bad.size:
        branch = "small" if small_branch else "large"
        failures.append(f"round {bad[0] + 1}: loss vector is not of the "
                        f"{branch}-rate branch's shape")
    return expected, failures


def closed_form_failures(label, ledger_loss, expected):
    gap = _max_gap(ledger_loss, expected)
    if gap > CLOSED_FORM_TOL:
        return [f"{label}: Hedge loss differs from its closed form "
                f"(gap {gap:.3g})"]
    return []


# ---------------------------------------------------------------------------
# iterates
# ---------------------------------------------------------------------------

def charged_loss_failures(label, ledger_loss, charged, losses):
    """Each ledger loss equals <x_t, y_t> for the vertex or policy charged."""
    expected = np.einsum("ij,ij->i", np.asarray(charged), np.asarray(losses))
    gap = _max_gap(ledger_loss, expected)
    if gap > ARITH_TOL:
        return [f"{label}: ledger loss differs from <x_t, y_t> (gap {gap:.3g})"]
    return []


def mset_iterate_failures(label, x, m):
    """An m-set iterate lies in (0, 1]^d and sums to m."""
    x = np.asarray(x, dtype=float)
    failures = []
    if not (np.all(x > 0.0) and np.all(x <= 1.0)):
        failures.append(f"{label}: iterate leaves (0, 1]")
    if abs(float(x.sum()) - m) > SUM_TOL:
        failures.append(f"{label}: iterate sums to {float(x.sum())!r}, not {m}")
    return failures


def mset_prox_spread(x_old, step, x_new, m):
    """Spread of ``g(x_new) - g(x_old) + step`` over the uncapped coordinates,
    with ``g(x) = 2x + (ln x + 1)/m``; zero at an exact proximal step."""
    x_old = np.asarray(x_old, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    if np.any(x_old <= 0.0) or np.any(x_new <= 0.0):
        return math.inf
    value = (2.0 * x_new + (np.log(x_new) + 1.0) / m
             - 2.0 * x_old - (np.log(x_old) + 1.0) / m + step)
    free = value[x_new < 1.0 - CAP_TOL]
    return float(free.max() - free.min()) if free.size else 0.0


def mset_prox_failures(label, x_old, step, x_new, m):
    failures = mset_iterate_failures(label, x_new, m)
    spread = mset_prox_spread(x_old, step, x_new, m)
    if not spread <= STATIONARITY_TOL:
        failures.append(f"{label}: proximal step is not stationary "
                        f"(spread {spread:.3g})")
    return failures


def incidence(edges, n_vertices):
    """Vertex-by-edge matrix with +1 at each edge's tail and -1 at its head."""
    mat = np.zeros((n_vertices, len(edges)))
    for e, (u, v) in enumerate(edges):
        mat[u, e] = 1.0
        mat[v, e] = -1.0
    return mat


def _flow_target(n_vertices, source, sink):
    b = np.zeros(n_vertices)
    b[source] = 1.0
    b[sink] = -1.0
    return b


def unit_flow_failures(label, x, inc, source, sink):
    """``x`` is a unit s-t flow: conserved, and within [0, 1] on every edge."""
    x = np.asarray(x, dtype=float)
    residual = _max_gap(inc @ x, _flow_target(inc.shape[0], source, sink))
    residual = max(residual, float(np.max(np.maximum(-x, x - 1.0), initial=0.0)))
    if residual > FLOW_TOL:
        return [f"{label}: not a unit s-t flow (residual {residual:.3g})"]
    return []


def path_failures(label, x, inc, source, sink):
    """``x`` is the edge indicator of one s-t path: a 0/1 unit flow (in a
    DAG a 0/1 unit flow has no cycle to hide, so it is exactly one path)."""
    x = np.asarray(x, dtype=float)
    if not np.all((x == 0.0) | (x == 1.0)):
        return [f"{label}: sampled vertex is not 0/1"]
    if not np.array_equal(inc @ x, _flow_target(inc.shape[0], source, sink)):
        return [f"{label}: sampled vertex is not an s-t path"]
    return []


def path_hedge_policies(paths, losses, eta):
    """Edge marginals of Hedge over the rows of ``paths``, before each round."""
    losses = np.asarray(losses, dtype=float)
    before = np.vstack([np.zeros(losses.shape[1]), np.cumsum(losses, axis=0)[:-1]])
    logits = -eta * before @ paths.T
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return (weights / weights.sum(axis=1, keepdims=True)) @ paths


def policy_gap_failures(label, policies, reference, tol):
    gap = _max_gap(policies, reference)
    if not gap <= tol:
        return [f"{label}: policy differs from the reference by {gap:.3g} "
                f"(tolerance {tol:g})"]
    return []


def potential_residual(x_old, x_new, y, eta, inc):
    """Least-squares distance of ``log x_new - log x_old + eta*y`` from the
    potential differences ``nu_tail - nu_head``; zero at an exact negative-
    entropy projection."""
    x_old = np.asarray(x_old, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    if np.any(x_old <= 0.0) or np.any(x_new <= 0.0):
        return math.inf
    target = np.log(x_new) - np.log(x_old) + eta * np.asarray(y, dtype=float)
    nu = np.linalg.lstsq(inc.T, target, rcond=None)[0]
    return _max_gap(inc.T @ nu, target)


def entropy_step_failures(label, x_old, x_new, y, eta, inc):
    residual = potential_residual(x_old, x_new, y, eta, inc)
    if not residual <= POTENTIAL_TOL:
        return [f"{label}: entropy step misses its optimality condition "
                f"(residual {residual:.3g})"]
    return []


# ---------------------------------------------------------------------------
# CSV ledger on disk
# ---------------------------------------------------------------------------

CSV_HEADER = "trial,t,learner,loss,cum_loss,cum_best,regret"


def csv_failures(label, text, ledgers):
    """The CSV file holds exactly the ledgers, row by row, in the documented
    order (trial, then learner, then round), each number reading back to
    the ledger's value."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != CSV_HEADER:
        return [f"{label}: CSV header or final newline is wrong"]
    rows = iter(lines[1:-1])
    n_trials = len(next(iter(ledgers.values())))
    for trial in range(n_trials):
        for name, per_trial in ledgers.items():
            led = per_trial[trial]
            columns = (led.loss, led.cum_loss, led.cum_best, led.regret)
            for t in range(len(led.loss)):
                row = next(rows, None)
                if not _row_matches(row, trial, t + 1, name,
                                    [col[t] for col in columns]):
                    return [f"{label}: CSV row for trial {trial}, {name}, "
                            f"t={t + 1} is {row!r}"]
    if next(rows, None) is not None:
        return [f"{label}: CSV has rows beyond the ledgers"]
    return []


def _row_matches(row, trial, t, name, values):
    if row is None:
        return False
    fields = row.split(",")
    if len(fields) != 7 or fields[:3] != [str(trial), str(t), name]:
        return False
    try:
        return all(float(f) == float(v) for f, v in zip(fields[3:], values))
    except ValueError:
        return False
