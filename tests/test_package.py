import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_every_module_leaves_scipy_unloaded():
    code = (
        "import importlib, pkgutil, sys\n"
        "import semimo, semimo.cli\n"
        "for module in pkgutil.iter_modules(semimo.__path__):\n"
        "    importlib.import_module('semimo.' + module.name)\n"
        "print(sorted(name for name in sys.modules if name.startswith('semimo.')))\n"
        "print('scipy' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules, scipy_loaded = proc.stdout.splitlines()
    assert "'semimo.sweeps'" in modules and "'semimo.cli'" in modules
    assert scipy_loaded == "False"
