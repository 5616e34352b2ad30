"""Set-up probe: what a user pays before round 1 of a workload.

Run in a fresh interpreter by ``run.py``: imports comblab, then builds the
decision set, every learner and the adversary of each config of the
workload through the harness's spec builders, and prints ``ready``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import srcpath


def main(argv):
    name, seed = argv[1], int(argv[2])
    comblab = srcpath.load_comblab()
    import workloads

    for cfg in workloads.make(comblab, name, seed, out_dir=".").configs:
        dset = comblab.build_set(cfg.set_spec)
        learners = [comblab.build_learner(spec, dset, cfg.horizon, cfg.eta)
                    for spec in cfg.learner_specs]
        comblab.build_adversary(cfg.adversary_spec, dset, cfg.horizon,
                                learner_eta=learners[0].eta)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv)
