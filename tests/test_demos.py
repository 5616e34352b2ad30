"""The quick demos run end to end.

``demos/01_hedge_basics.py`` and ``demos/02_dag_weight_pushing.py`` take a
second or two each.  ``demos/03_mset_separation.py`` (about 17 s) and
``demos/04_lower_bound_gallery.py`` (about 26 s), timed on 2 shared CPUs,
are left out of this suite for their run time.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_hedge_basics.py",
                                  "02_dag_weight_pushing.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "FAIL" not in out
