"""The golden ledgers of ``tests/golden/``: every registry family, learner
and mode at T = 32, pinned byte for byte where the machine's dispatch key
was recorded and to 1e-12 everywhere.  Regenerate them only on purpose,
with ``python tests/golden/regen.py``."""

import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

_REGEN = pathlib.Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

#: the widest column gap allowed where the bytes may differ: another SIMD
#: level or BLAS kernel moves sums in their last bits
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def fresh():
    return golden.run_all()


def test_the_matrix_covers_every_family_learner_and_mode():
    cases = golden.configs().values()
    assert len(cases) == 28
    families = {c.set_spec.split(":")[0] for c in cases}
    assert families == set(golden.cl.harness.SETS)
    accepted = {c.set_spec.split(":")[0]: set(c.learner_specs) for c in cases}
    for name, entry in golden.cl.harness.LEARNERS.items():
        for family, learners in accepted.items():
            set_class = golden.cl.harness.SETS[family].set_class
            if issubclass(set_class, entry.set_class):
                assert name in learners, (name, family)
    hashes, columns = golden.load()
    assert set(hashes) == set(columns) == set(golden.configs())


def test_ledgers_keep_their_bytes_on_a_recorded_key(fresh):
    hashes, _ = golden.load()
    key = golden.dispatch_key()
    if not any(key in by_key for by_key in hashes.values()):
        pytest.skip(f"no golden bytes recorded for {key!r}")
    moved = [name for name, (digest, _) in fresh.items()
             if hashes[name][key] != digest]
    assert not moved, moved


def test_ledger_columns_hold_to_the_tolerance(fresh):
    _, columns = golden.load()
    gaps = {name: golden.gap(cols, columns[name])
            for name, (_, cols) in fresh.items()}
    assert max(gaps.values()) <= TOLERANCE, gaps


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled features and the kernel are x86-64's")
@pytest.mark.parametrize("env", [
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    {"OPENBLAS_CORETYPE": "Haswell"}], ids=["avx2", "openblas-haswell"])
def test_ledger_columns_hold_on_another_simd_level_or_blas_kernel(env):
    proc = subprocess.run([sys.executable, str(_REGEN), "--check"],
                          env=dict(os.environ, **env), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)
    assert set(checks) == set(golden.configs())
    assert max(width for _, width in checks.values()) <= TOLERANCE, checks
    assert all(same is not False for same, _ in checks.values()), checks


def test_a_rewritten_column_file_has_the_same_bytes(tmp_path, monkeypatch):
    _, columns = golden.load()
    monkeypatch.setattr(golden, "COLUMNS", tmp_path / "columns.npz")
    golden._write_columns(columns)
    assert golden.COLUMNS.read_bytes() == _REGEN.with_name(
        "columns.npz").read_bytes()
    with np.load(golden.COLUMNS) as npz:
        assert len(npz.files) == len(columns)
