"""The package names the benchmark tracer binds still exist.

`perfbench/tracing.py` rebinds every function of its `LAYERS` table, reads
`cache_info()` from each `CACHED` group and wraps the `POOL_FUNCTIONS`
names on `relalg.laws`. A refactor that drops or renames one of them breaks
`perfbench/run.py --trace 1`; this test catches it in the unit suite. The
tracer module is only read here, never changed or installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_exist_in_the_package():
    tracing = _tracing()
    for span, (module_name, functions) in tracing.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{span}: {module_name}.{name} is gone"
    for span in tracing.CACHED:
        module_name, functions = tracing.LAYERS[span]
        module = importlib.import_module(module_name)
        for name in functions:
            assert hasattr(getattr(module, name), "cache_info"), f"{span}: {name} is not memoized"
    laws = importlib.import_module("relalg.laws")
    for name in tracing.POOL_FUNCTIONS:
        assert callable(getattr(laws, name, None)), f"relalg.laws.{name} is gone"
