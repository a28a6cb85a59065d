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


@pytest.fixture
def blas_counts():
    """A reader of each loaded OpenBLAS's thread count, set to two for the test.

    Two is not the pinned count on any host, so a pin that did not take, or
    was not undone, shows. Each library gets its own count back afterwards.
    """
    from semimo.bench import _openblas_controls

    controls = list(_openblas_controls())
    if not controls:
        pytest.skip("no OpenBLAS is loaded")
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield lambda: [get() for get, _ in controls]
    for (_, set_), count in zip(controls, before):
        set_(count)
