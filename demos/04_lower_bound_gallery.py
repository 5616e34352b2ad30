"""The hard-instance gallery: measured regret next to the theory rates.

Each construction pins a different structural fact: shattered coordinates
force sqrt(T)-scale regret per index, multitask phases add up per-block
hardness, and the layered DAG realises a path-count lower bound within an
edge budget.  Constants are not asserted -- rates are printed side by side.

Runtime: about 26 s (Python 3.11, numpy 2.4, 2 shared CPUs); the universal
demo runs 200 repetitions.
"""

import json

import comblab as cl

for theorem_id in ("universal", "mset-lb", "multitask", "dag-minimax"):
    print(f"=== {theorem_id} " + "=" * max(0, 58 - len(theorem_id)))
    print(json.dumps(cl.lb_demo(theorem_id, seed=0), indent=2))
    print()

print("The mset-hedge-lb demo (rate-targeted streams at d=64) lives in "
      "demos/03_mset_separation.py and in `comblab lb-demo mset-hedge-lb`.")
