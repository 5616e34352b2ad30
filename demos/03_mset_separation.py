"""Hedge vs mirror descent on m-sets: the separation experiment.

For each tested learning rate the rate-aware two-phase stream is generated,
and both learners play the same stream (``lb_demo("mset-hedge-lb")``).
Hedge's regret stays above the m-set mirror-descent learner's at every
rate; the ratio is reported (the asymptotic growth factor is not asserted
at desk scale).

Runtime: about 17 s (Python 3.11, numpy 2.4, 2 shared CPUs).
"""

import math

import comblab as cl
from comblab.harness import SEPARATION_INSTANCE, separation_rates

d, m, horizon = SEPARATION_INSTANCE
dset = cl.MSet(d, m)
eta0 = cl.hedge_killer_base_rate(d, m, horizon)
eta_omd = cl.mset_omd_rate(d, m, horizon)
bound = math.sqrt(18 * horizon * m + 18 * horizon * math.log(d / m))

print(f"m-set(d={d}, m={m}), T={horizon}")
print(f"branch threshold eta0 = {eta0:.4f}; "
      f"mirror-descent rate {eta_omd:.4f}; regret bound {bound:.0f}\n")

print(f"{'hedge rate':>15} {'branch':>8} {'hedge':>8} {'omd':>8} {'ratio':>6}")
rows = cl.lb_demo("mset-hedge-lb", seed=0)["per_rate"]
for label, eta in separation_rates(d, m, horizon).items():
    row = rows[label]
    probe = cl.HedgeKillerStream(d, m, horizon, eta)
    branch = "fixed" if probe.small_branch else "2-phase"
    print(f"{label:>15} {branch:>8} {row['hedge_regret']:8.1f} "
          f"{row['omd_regret']:8.1f} {row['ratio']:6.2f}")

print("\nmirror descent under the zero-mean suite streams "
      "(any algorithm pays the sqrt(T)-scale floor here):")
for adv_spec in ("universal", "mset-lb"):
    cfg = cl.ExperimentConfig(f"mset:{d}:{m}", ["omd-mset"], adv_spec,
                              horizon=horizon, trials=20, seed=0)
    res = cl.run_experiment(cfg, decision_set=dset)
    s = res.summary["omd-mset"]
    print(f"  {adv_spec:>10}: mean {s['mean_final_regret']:.1f} "
          f"(std {s['std']:.1f}, bound {bound:.0f})")
