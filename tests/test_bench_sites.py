"""Every function the benchmark's tracer wraps must still exist under its name."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patch_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for span, sites in tracing.SPANS.items():
        for module, path in sites:
            try:
                owner, attr = tracing._resolve(module, path)
            except (ImportError, AttributeError):
                owner, attr = None, path
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{span}: {module}.{path}")
    assert not missing, f"unresolved patch sites: {missing}"
