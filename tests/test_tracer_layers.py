"""The benchmark's tracer names the functions it wraps by module and
attribute (`perfbench/tracer.py`, LAYERS).  A rename or deletion under
src/ breaks `perfbench/run.py --trace 1` without failing any test here
unless these names are checked against the package as it imports."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import importlib.util, sys
import matchcover, matchcover.cli  # the imports of perfbench/workloads.py
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
layers = [layer for layer in tracer.LAYERS if layer[1].startswith("matchcover")]
assert layers, "no matchcover layers"
for name, module, attr in layers:
    assert module in sys.modules, f"{name}: {module} is not imported"
    assert callable(getattr(sys.modules[module], attr, None)), f"{name}: no {module}.{attr}"
"""


def test_traced_layers_name_callables_of_the_imported_package():
    # a fresh interpreter: only the modules the benchmark's imports load count
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, str(ROOT / "perfbench" / "tracer.py")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
