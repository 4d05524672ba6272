"""The names the benchmark reaches into must exist.

``perfbench/tracer.py`` rebinds the functions in ``TARGETS`` and the
``DlogTable`` methods in ``METHODS`` by name, reads the lru caches in
``CACHED``, and ``perfbench/probes.py`` imports from ``selfdual``.  A
name deleted or renamed in the package would drop a span without
warning, or break a probe only in a traced run.  The files are read
with ``ast``; nothing under ``perfbench/`` is imported or run.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _constants(path):
    """{name: value} of the module-level literal assignments in ``path``."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


def _probe_imports(path):
    """(module, name) for every name ``path`` imports from selfdual."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "selfdual"
                or node.module.startswith("selfdual.")):
            out += [(node.module, alias.name) for alias in node.names]
    return out


TRACER = _constants(PERFBENCH / "tracer.py")
TARGETS = [(module, attr) for module, attr, _ in TRACER["TARGETS"]]
METHODS = [(cls, attr) for cls, attr, _ in TRACER["METHODS"]]
PROBE_IMPORTS = _probe_imports(PERFBENCH / "probes.py")


def test_the_benchmark_files_name_what_they_trace():
    # an empty list would make every check below pass vacuously
    assert len(TARGETS) >= 20 and METHODS and TRACER["CACHED"]
    assert ("selfdual.linalg", "DlogTable") in PROBE_IMPORTS


@pytest.mark.parametrize("module,attr", TARGETS,
                         ids=["%s.%s" % t for t in TARGETS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module("selfdual." + module),
                            attr))


@pytest.mark.parametrize("cls,attr", METHODS,
                         ids=["%s.%s" % m for m in METHODS])
def test_traced_method_exists(cls, attr):
    linalg = importlib.import_module("selfdual.linalg")
    assert callable(getattr(getattr(linalg, cls), attr))


@pytest.mark.parametrize("attr", TRACER["CACHED"])
def test_cached_function_keeps_its_lru_cache(attr):
    fields = importlib.import_module("selfdual.fields")
    assert callable(getattr(fields, attr).cache_info)


@pytest.mark.parametrize("module,name", PROBE_IMPORTS,
                         ids=["%s.%s" % p for p in PROBE_IMPORTS])
def test_probe_import_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
