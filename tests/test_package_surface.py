"""The package keeps only what its own code, its script or its benchmark reads.

A public top-level function or class, or a public method, of ``src/fluxt1``
that nothing in ``src/``, ``scripts/`` or ``perfbench/`` names is test-only
code: a reference route or a diagnostic, which belongs in ``tests/``. And
every name the benchmark reads must exist, or each of its runs fails.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "scripts", "perfbench")


def _trees(directory: str):
    return [ast.parse(path.read_text(), str(path))
            for path in sorted((ROOT / directory).rglob("*.py"))]


def defined_names() -> set[tuple[str, str]]:
    """(qualified name, name) of every public top-level function and class,
    and every public method, of the package's modules."""
    found = set()
    for tree in _trees("src"):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.add((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found |= {(f"{node.name}.{item.name}", item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")}
    return found


def referred_names() -> set[str]:
    """Every name a Name, Attribute, import alias or string constant of the
    readers' code holds."""
    names = set()
    for directory in READERS:
        for tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_public_name_is_read_outside_the_tests():
    referred = referred_names()
    unread = sorted(qualified for qualified, name in defined_names() if name not in referred)
    assert unread == []


def test_every_name_the_benchmark_reads_exists():
    # read from perfbench/'s source, so no workload runs: the tracer's
    # (module, attribute) pairs and QceffInverter methods, and every name
    # any benchmark file imports from the package
    spans = {target.id: ast.literal_eval(node.value)
             for node in ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS")}
    missing = [f"{module}.{attr}" for module, attr in spans["FUNCTIONS"]
               if not hasattr(importlib.import_module(module), attr)]
    inverter = importlib.import_module("fluxt1.pipeline").QceffInverter
    missing += [f"QceffInverter.{name}" for name in spans["METHODS"]
                if name not in inverter.__dict__]
    for tree in _trees("perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fluxt1"):
                module = importlib.import_module(node.module)
                missing += [f"{node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
    assert len(spans["FUNCTIONS"]) > 0 and len(spans["METHODS"]) == 2
    assert missing == []
