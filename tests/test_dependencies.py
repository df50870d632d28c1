"""Dependency guard: the declared dependencies are the real ones.

``src/`` may import only the standard library, ``repro`` itself and what
``pyproject.toml`` lists in ``[project].dependencies``; ``tests/`` and
``benchmarks/`` may also import the ``test`` extra.  Every import counts,
function-local ones included.  The package must also import without
pulling in scipy, which only the KS oracle's identity test uses.

Python 3.10 has no ``tomllib``, so the two arrays are read with a regular
expression.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]


def _toml_array(text: str, table: str, key: str) -> List[str]:
    """The strings of ``key = [...]`` in the ``[table]`` section of ``text``."""
    section = re.search(rf"^\[{re.escape(table)}\][ \t]*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section, f"no [{table}] in pyproject.toml"
    array = re.search(rf"^{re.escape(key)}\s*=\s*\[(.*?)\]", section.group(1), re.M | re.S)
    assert array, f"no {key} = [...] in [{table}]"
    return re.findall(r'"([^"]*)"', array.group(1))


def _module_names(requirements: List[str]) -> Set[str]:
    """Import names of requirement strings (``pytest-benchmark>=4`` -> ``pytest_benchmark``)."""
    return {re.sub(r"[-.]", "_", re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower()) for r in requirements}


def declared() -> Dict[str, List[str]]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return {
        "dependencies": _toml_array(text, "project", "dependencies"),
        "test": _toml_array(text, "project.optional-dependencies", "test"),
    }


def _local_modules() -> Set[str]:
    """Modules the suites import from the checkout itself (``sys.path`` inserts, ``benchmarks``)."""
    return {"benchmarks"} | {path.stem for top in ("tests", "benchmarks") for path in (ROOT / top).rglob("*.py")}


def third_party_imports(top: str) -> Dict[str, Set[str]]:
    """Top-level module -> files, for every absolute import under ``top``
    that is neither the standard library nor ``repro``."""
    found: Dict[str, Set[str]] = {}
    for path in sorted((ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                name = module.split(".")[0]
                if name not in sys.stdlib_module_names and name != "repro":
                    found.setdefault(name, set()).add(str(path.relative_to(ROOT)))
    return found


def test_every_import_is_declared():
    arrays = declared()
    assert "numpy" in arrays["dependencies"] and "scipy" in arrays["test"], arrays
    runtime = _module_names(arrays["dependencies"])
    testing = runtime | _module_names(arrays["test"]) | _local_modules()
    undeclared = [
        f"{name} in {top}/ ({', '.join(sorted(files))})"
        for top, allowed in (("src", runtime), ("tests", testing), ("benchmarks", testing))
        for name, files in sorted(third_party_imports(top).items())
        if name not in allowed
    ]
    assert not undeclared, "imports pyproject.toml does not declare:\n  " + "\n  ".join(undeclared)


def test_package_imports_without_scipy():
    code = "import sys, repro, repro.core, repro.observability, repro.faults; print('scipy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False", "importing repro pulled in scipy"
