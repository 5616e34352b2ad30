"""Golden ledgers: a fixed matrix of small experiments whose CSV bytes and
ledger columns are pinned in this directory.

Every set family of the registry runs every learner it accepts, against
``gaussian``, ``universal`` and each lower-bound stream of its own, in both
modes, at T = 32 with 2 trials.  ``ledgers.json`` holds each CSV's SHA-256
under the key of the machine that wrote it (:func:`dispatch_key`), and
``columns.npz`` the ledger columns.  ``tests/test_golden.py`` checks them.

Run ``python tests/golden/regen.py`` to rewrite both files, and only when a
change moves ledgers on purpose.  It prints each config as moved or
unchanged, with its largest column gap against the files it replaces, and
keeps the hashes of other keys only for configs that did not move.  With
``--check`` it writes nothing and prints, per config as JSON, whether its
bytes match those recorded on this key (null where none are) and its
largest column gap.
"""

import hashlib
import io
import json
import os
import pathlib
import sys
import zipfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import comblab as cl  # noqa: E402

HORIZON, TRIALS, SEED = 32, 2, 23
HASHES = HERE / "ledgers.json"
COLUMNS = HERE / "columns.npz"
#: the ledger columns, in CSV order
FIELDS = ("loss", "cum_loss", "cum_best", "regret")

_DAG_LEARNERS = ["hedge", "hedge-dag", "omd-dilated", "omd-dilated:numeric=1",
                 "omd-entropy-dag"]
#: set spec, learners, and the set's own lower-bound streams
FAMILIES = {
    "mset": ("mset:6:2", ["hedge", "omd-mset"], ["mset-lb", "hedge-killer"]),
    "multitask": ("multitask:2,3,4", ["hedge"], ["multitask-phases"]),
    "dag-layered": ("dag-layered:16:32", _DAG_LEARNERS,
                    ["dag-layered:16:32"]),
    # paths of two and three hops
    "dag": (f"dag:{HERE / 'mixed.dag'}", _DAG_LEARNERS, []),
    "explicit": (f"explicit:{HERE / 'explicit.txt'}", ["hedge"], []),
}


def configs():
    """``{name: ExperimentConfig}`` of the golden matrix, in a fixed order."""
    out = {}
    for family, (set_spec, learners, own) in FAMILIES.items():
        for adversary in ["gaussian", "universal", *own]:
            for mode in ("expected", "sampled"):
                name = f"{family}/{adversary.split(':')[0]}/{mode}"
                out[name] = cl.ExperimentConfig(set_spec, learners, adversary,
                                                horizon=HORIZON, trials=TRIALS,
                                                seed=SEED, mode=mode)
    return out


def dispatch_key():
    """The numpy version and its enabled CPU dispatch targets (the SIMD
    kernels it runs), plus an ``OPENBLAS_CORETYPE`` override if one is set:
    the bytes of a ledger can differ between two such keys."""
    from numpy._core import _multiarray_umath as umath

    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    key = f"numpy {np.__version__}: {' '.join(found) or 'baseline'}"
    if os.environ.get("OPENBLAS_CORETYPE"):
        key += f"; OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']}"
    return key


def run(config):
    """``(sha256 of the CSV, columns)``: the columns a ``(learners, trials,
    4, T)`` array in ``FIELDS`` order."""
    result = cl.run_experiment(config)
    digest = hashlib.sha256(cl.csv_text(result).encode()).hexdigest()
    columns = np.array([[[getattr(led, f) for f in FIELDS] for led in trials]
                        for trials in result.ledgers.values()])
    return digest, columns


def run_all():
    return {name: run(config) for name, config in configs().items()}


def load():
    """``(hashes, columns)`` as recorded."""
    hashes = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    columns = {}
    if COLUMNS.exists():
        with np.load(COLUMNS) as npz:
            columns = {name.replace(":", "/"): npz[name] for name in npz.files}
    return hashes, columns


def gap(a, b):
    """Largest absolute column difference; inf if the shapes differ."""
    if a.shape != b.shape:
        return np.inf
    return float(np.abs(a - b).max(initial=0.0))


def _write_columns(columns):
    """An npz that ``np.load`` reads, with fixed zip timestamps so that the
    same columns give the same bytes."""
    with zipfile.ZipFile(COLUMNS, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, array in columns.items():
            buf = io.BytesIO()
            np.save(buf, array)
            # ':' keeps the names flat inside the zip
            info = zipfile.ZipInfo(name.replace("/", ":") + ".npy",
                                   date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, buf.getvalue())


def main(argv):
    check = "--check" in argv
    key = dispatch_key()
    old_hashes, old_columns = load()
    fresh = run_all()
    if check:
        recorded = {name: old_hashes.get(name, {}).get(key) for name in fresh}
        json.dump({name: [recorded[name] and digest == recorded[name],
                          gap(columns, old_columns.get(name, np.empty(0)))]
                   for name, (digest, columns) in fresh.items()},
                  sys.stdout)
        return 0
    hashes = {}
    for (name, (digest, columns)), config in zip(fresh.items(),
                                                 configs().values()):
        old = old_columns.get(name, np.empty(0))
        moved = [spec for i, spec in enumerate(config.learner_specs)
                 if old.shape != columns.shape
                 or not np.array_equal(old[i], columns[i])]
        hashes[name] = {} if moved else dict(old_hashes.get(name, {}))
        hashes[name][key] = digest
        print(f"{'moved' if moved else 'unchanged':<9} {name:<34} largest "
              f"column gap {gap(columns, old):.3g}"
              + (f", learners {' '.join(moved)}" if moved else ""))
    HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    _write_columns({name: columns for name, (_, columns) in fresh.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
