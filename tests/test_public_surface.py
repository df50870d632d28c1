"""Dead-surface guard: every public name in ``src/repro`` has a user.

A public function, class or method (module level or in a class body, name
not starting with ``_``) must be named somewhere in ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` besides its own definition, a package
``__init__`` re-export and an ``__all__`` list.  The check is by name, over
raw text, so a mention in a string or a docstring counts as a use: it
catches code nothing can reach, not code that is merely untested.

A name that must stay public without a caller goes in ``ALLOWLIST`` with
the reason next to it.
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
