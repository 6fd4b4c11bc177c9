"""The benchmark's tracer rebinds program names from outside the package;
every name it patches must still exist, or a traced run breaks."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracing = load_tracing()
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _, _ in tracing.PATCHES
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_install_and_uninstall_restore_the_names():
    tracing = load_tracing()
    before = [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not orig for (module, attr, _, _), orig
                   in zip(tracing.PATCHES, before))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr)
            for module, attr, _, _ in tracing.PATCHES] == before
