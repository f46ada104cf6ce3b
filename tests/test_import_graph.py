"""Each entry point imports only the layers it uses.

``import repro`` loads no subpackage; the serving, search and sweep
entry points load neither scipy nor the experiment drivers, and do
load the numpy submodules they call; scipy loads at the first
exact-GELU evaluation; and the experiment registry is complete on its
first lookup, although the package imports a driver only when it is
named.  The test process has long since imported everything, so
every check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
EXPERIMENTS = SRC / "repro" / "analysis" / "experiments"


def run_fresh(script: str):
    """Run ``script`` in a fresh interpreter; return the JSON value it
    prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(statement: str) -> set:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    return set(run_fresh(f"import json, sys\n{statement}\n"
                         "print(json.dumps(sorted(sys.modules)))"))


def test_import_repro_loads_no_subpackage():
    loaded = modules_after("import repro")
    assert "repro" in loaded
    assert sorted(m for m in loaded if m.startswith("repro.")) == []


def test_subpackages_resolve_on_attribute_access():
    before, engine, driver, after = run_fresh("""
        import json, sys
        import repro
        before = "repro.serve" in sys.modules
        engine = repro.serve.ServingEngine.__name__
        driver = repro.analysis.experiments.auto_config.__name__
        print(json.dumps([before, engine, driver,
                          "repro.serve" in sys.modules]))
    """)
    assert not before
    assert engine == "ServingEngine"
    assert driver == "repro.analysis.experiments.auto_config"
    assert after


@pytest.mark.parametrize("module", ("repro.serve", "repro.search",
                                    "repro.serve.sweep"))
def test_entry_point_leaves_out_scipy_and_drivers(module):
    """The serving and search entry points, and the import a spawned
    sweep worker makes, skip scipy and ``repro.analysis``."""
    loaded = modules_after(f"import {module}")
    assert module in loaded
    assert "scipy" not in loaded
    assert sorted(m for m in loaded if m == "repro.analysis"
                  or m.startswith("repro.analysis.")) == []
    # numpy 2 defers numpy.random to first use; the trace generators
    # import it with themselves, so it never loads inside a timed run.
    assert "numpy.random" in loaded


def test_registry_imports_every_driver_on_first_lookup():
    before, names, missing = run_fresh("""
        import json, sys
        from repro.analysis import experiments
        modules = [f"{experiments.__name__}.{name}"
                   for name in experiments.DRIVERS]
        before = [m for m in modules if m in sys.modules]
        names = experiments.names()
        missing = [m for m in modules if m not in sys.modules]
        print(json.dumps([before, names, missing]))
    """)
    assert before == []
    assert names == ["auto_config", "autoscaling_serving",
                     "cluster_serving", "paged_serving",
                     "serving_load_sweep"]
    assert missing == []


def test_driver_list_names_every_driver_module():
    """``DRIVERS`` is the package's one list of its modules; a driver
    file missing from it would never reach the registry."""
    from repro.analysis import experiments

    on_disk = {path.stem for path in EXPERIMENTS.glob("*.py")} \
        - {"__init__", "__main__", "registry"}
    assert sorted(experiments.DRIVERS) == sorted(on_disk)


def test_exact_gelu_loads_scipy_on_first_call():
    before, after, value = run_fresh("""
        import json, sys
        import numpy as np
        import repro.llm.nn
        from repro.baselines import precise
        before = "scipy" in sys.modules
        value = float(precise.gelu(np.array([1.0]))[0])
        print(json.dumps([before, "scipy.special" in sys.modules, value]))
    """)
    assert not before
    assert after
    assert value == pytest.approx(0.8413447460685429, rel=1e-15)
