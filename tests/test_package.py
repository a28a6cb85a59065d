import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import semimo
from semimo.config import load_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_python(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports semimo from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120, cwd=cwd,
    )


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(semimo.__path__):
        module = importlib.import_module(f"semimo.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"semimo.{info.name}.__all__ names missing attributes {missing}"


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(block, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "(128, 128)" in proc.stdout


def test_readme_config_block_loads(tmp_path):
    # Only whole-line "#" comments are comments: an inline one became part
    # of the image path.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.source_image().shape == (cfg.image_height, cfg.image_width)


def test_importing_every_module_leaves_scipy_unloaded():
    code = (
        "import importlib, pkgutil, sys\n"
        "import semimo, semimo.cli\n"
        "for module in pkgutil.iter_modules(semimo.__path__):\n"
        "    importlib.import_module('semimo.' + module.name)\n"
        "print(sorted(name for name in sys.modules if name.startswith('semimo.')))\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    modules, scipy_loaded = proc.stdout.splitlines()
    assert "'semimo.sweeps'" in modules and "'semimo.cli'" in modules
    assert scipy_loaded == "False"
