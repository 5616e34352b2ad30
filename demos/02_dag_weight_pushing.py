"""Path sets on DAGs: weight pushing, dilated entropy, iterate equivalence.

Weight pushing turns per-edge exponential weights into exact path-space
Hedge marginals in O(|E|) per round.  Mirror descent with the dilated
entropy regularizer produces the same iterates -- certified here by running
the numeric KKT solver against weight pushing on random graphs.
"""

import numpy as np

import comblab as cl
from comblab.instances import diamond_dag, random_layered_dag
from comblab.sampling import RngStream

# ---------------------------------------------------------------------------
# A diamond: two parallel routes
# ---------------------------------------------------------------------------

dag = diamond_dag()
dset = cl.DagPathSet(dag)
print(f"diamond: {dag.n_edges} edges, {dag.path_count()} paths, "
      f"defects: {dag.validate()}")

hedge = cl.PathHedge(dset, eta=1.0)
y_top = np.array([0.5, 0.0, 0.5, 0.0])  # charge the top route one unit
hedge.step(y_top)
print("edge marginals after one hit on the top route:", hedge.propose())

# The dilated entropy of a flow equals the entropy of its path distribution:
psi = cl.DilatedEntropy(dag)
flow = hedge.propose()
print("dilated entropy:", psi.value(flow),
      " path-sum oracle:", cl.path_entropy_sum(dag, flow))

# Markovian sampling draws a path whose expectation is the flow:
rng = RngStream(11, 0)
draws = sum(cl.sample_path(dag, flow, rng) for _ in range(20_000)) / 20_000
print("empirical marginals over 20k draws:", np.round(draws, 3))

# ---------------------------------------------------------------------------
# Iterate equivalence, certified numerically
# ---------------------------------------------------------------------------

print("\nmirror descent (numeric KKT) vs weight pushing on random DAGs:")
rng = RngStream(12, 0)
for i in range(5):
    g = random_layered_dag(rng, max_edges=15)
    stream = cl.GaussianFeasibleStream(cl.DagPathSet(g), 50, rng.substream(i))
    rep = cl.check_iterate_equivalence(g, stream, eta=0.3)
    print(f"  graph {i}: {g.n_edges} edges, {g.path_count()} paths, "
          f"max gap {rep.max_gap:.2e} -> {'pass' if rep.passed else 'FAIL'}")

# ---------------------------------------------------------------------------
# The shifted-loss entropy learner
# ---------------------------------------------------------------------------

print("\nshifted losses: same game, non-negative edge costs")
y = np.array([0.5, -0.5, 0.5, -0.5])
shifted, alpha = cl.shift_losses(dag, y)
print("y:", y, " -> y':", shifted, " shift alpha:", alpha)

learner = cl.EntropyDagOmd(dset, eta=0.8)
for t in range(30):
    learner.step(y_top)
print("entropy-learner flow after 30 rounds of top-route losses:",
      np.round(learner.iterate, 4))
ok, res = cl.flow_check(dag, learner.iterate)
print("flow residual:", res)
