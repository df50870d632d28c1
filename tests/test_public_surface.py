"""Dead-surface guard: every public name in ``src/repro`` has a user.

A public function, class or method (module level or in a class body, name
not starting with ``_``) must be named somewhere in ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` besides its own definition, a package
``__init__`` re-export and an ``__all__`` list.  The check is by name, over
raw text, so a mention in a string or a docstring counts as a use: it
catches code nothing can reach, not code that is merely untested.

A name that must stay public without a caller goes in ``ALLOWLIST`` with
the reason next to it.

The same holds for imports: a module-level import in a ``src/repro``
module other than an ``__init__`` must bind a name the module uses.  Uses
are found on the AST: a name read anywhere in the module, an ``__all__``
entry, a name inside a string annotation, or a package ``__init__`` that
re-exports the name from this module.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CORPUS = ("src", "tests", "benchmarks", "examples")
ALLOWLIST: frozenset = frozenset()

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_defs(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level and class-body definitions, recursing into classes."""
    for node in body:
        if isinstance(node, _DEFS):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                yield from _public_defs(node.body)


def _skipped_lines(tree: ast.Module, is_init: bool) -> set:
    """Lines of ``__all__`` lists and, in an ``__init__``, its re-exports."""
    skipped = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
        if is_all or (is_init and isinstance(node, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    return skipped


def scan() -> Tuple[Dict[str, List[str]], Counter]:
    """``(definitions, uses)``: where each public name is defined, and how
    often every word occurs in the corpus outside the skipped lines."""
    defined: Dict[str, List[str]] = {}
    uses: Counter = Counter()
    for top in CORPUS:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            skipped = set()
            if path.is_relative_to(SRC):
                tree = ast.parse(text, filename=str(path))
                skipped = _skipped_lines(tree, path.name == "__init__.py")
                for node in _public_defs(tree.body):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    defined.setdefault(node.name, []).append(where)
            for lineno, line in enumerate(text.splitlines(), start=1):
                if lineno not in skipped:
                    uses.update(_WORD.findall(line))
    return defined, uses


def dead_names() -> List[str]:
    """Public names whose only occurrences are their own definitions."""
    defined, uses = scan()
    return sorted(
        f"{name} ({', '.join(where)})"
        for name, where in defined.items()
        if uses[name] <= len(where) and name not in ALLOWLIST
    )


def test_no_public_name_is_dead():
    dead = dead_names()
    assert not dead, "public names nothing references (delete them or allowlist them):\n  " + "\n  ".join(dead)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _reexports() -> set:
    """``(module, name)`` for every name a package ``__init__`` imports."""
    found = set()
    for path in SRC.rglob("__init__.py"):
        package = _module_name(path).split(".")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                found.update((module, alias.name) for alias in node.names)
    return found


def _used_names(tree: ast.Module) -> set:
    """Names the module reads, lists in ``__all__`` or names in a string annotation."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for annotation in annotations:
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                parsed = ast.parse(const.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def unused_imports() -> List[str]:
    """Module-level imports in non-``__init__`` modules whose names nothing uses."""
    reexported = _reexports()
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module, used = _module_name(path), _used_names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and (module, bound) not in reexported:
                    unused.append(f"{bound} ({path.relative_to(ROOT)}:{node.lineno})")
    return unused


def test_no_module_level_import_is_unused():
    unused = unused_imports()
    assert not unused, "module-level imports nothing uses (delete them):\n  " + "\n  ".join(unused)
