import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def traced_peak():
    """``scripts/bench_layers.py``'s peak traced bytes of one call, after an untraced one."""
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "scripts" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._peak_bytes
