"""The names outside callers reach by name still exist in the package.

``bench/tracing.py`` patches each ``(module, attribute)`` of its ``TRACED`` table when a
benchmark runs with ``--trace 1``, and its ``reconstruct`` wrapper reads
``StokesVector.bloch_norm``; a name deleted from ``src/`` breaks that run at install time.
The table is read from the file as it stands, without importing the bench package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("qcore", "optics", "thermo", "tomography", "circuit", "runner", "cli")


def test_traced_bindings_and_exported_names_resolve():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for targets in tracing.TRACED.values():
        for module_name, attr in targets:
            owner = importlib.import_module(f"ottosim.{module_name}")
            for part in attr.split("."):  # "Class.method" names a method of a class
                owner = getattr(owner, part, None)
            if not callable(owner):
                unresolved.append(f"{module_name}.{attr}")
    assert unresolved == []
    assert isinstance(importlib.import_module("ottosim.tomography").StokesVector.bloch_norm,
                      property)
    for module_name in MODULES:
        module = importlib.import_module(f"ottosim.{module_name}")
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
