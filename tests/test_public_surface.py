"""Dead-surface guard: every public name in ``src/repro`` has a caller.

A public function, class or method (module level or in a class body, name
not starting with ``_``) must be referenced by code in ``src/``,
``benchmarks/`` or ``examples/``.  ``tests/`` is not part of that corpus: a
name only tests call is surface nothing else needs.  References are read
off the AST, and one is

* a ``Name``;
* an ``Attribute`` attr;
* an import alias, outside a package ``__init__``;
* a string constant equal to the name (dispatch such as
  ``SCENARIOS = ("steady", "bursty", ...)``).

None of these counts: an ``__all__`` entry, a package ``__init__``
re-export, a reference that sits lexically inside one of the name's own
definitions (a recursive call, an override's ``super().name()``), and
prose: a docstring or message that mentions the name is not equal to it.

A name that must stay public without a caller goes in ``ALLOWLIST`` with
the reason it stays; an entry must name a defined public name, say why,
and still lack a caller.

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
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CORPUS = ("src", "benchmarks", "examples")
ALLOWLIST: Dict[str, str] = {
    # Instruments of suites whose subject stays.
    "recording": "persist: logs the durable-op schedule the crash-state suite replays",
    "put_ledger_segments": "CheckpointStore: ledger I/O of the crash harness and durable-store suites",
    "iter_ledger_segments": "CheckpointStore: ledger I/O of the crash harness and durable-store suites",
    "clear_round": "CheckpointStore: round reset of the checkpoint-store and durable-store suites",
    "resume_or_raise": "CheckpointStore: the strict resume the durable-store suite pins",
    "is_empty": "FaultPlan: the no-fault precondition of the chaos and engine suites",
    "op_types": "GraphIR: what the pass-property suites assert a pass leaves behind",
    "workspace_bytes": "CompiledExecutor: the cached workspace bytes the compiled-executor suite checks",
    "execute_graph": "exchange: the node-by-node reference the executor suites diff against",
    "vectorized_supported": "federated engine: the one-cohort predicate the cohort suites check",
    "optimizer_state_layout": "FederatedClient: the state layout the batched-cohort suite stacks",
    "plug": "Battery: the scalar twin the FleetState lock-step suite drives",
    "unplug": "Battery: the scalar twin the FleetState lock-step suite drives",
    "make_autoencoder": "nn zoo: a model of the compiled-executor golden suite",
    "FedAdamAggregator": "federated: an aggregator of the pinned round worlds in tests/pins",
    "SecureAggregator": "federated: an aggregator of the pinned round worlds in tests/pins",
    "merge": "RunningMoments / CountMinSketch: the fleet merge the sketch suites check; ROADMAP 13a replaces it",
    "latency_sample": "TelemetryRecorder: read by the telemetry suites; ROADMAP 13a replaces it",
    # Paper claims.
    "protect": "paper V: the platform's IP-protection entry point",
    "TriggerSetWatermarker": "paper V: trigger-set watermarking of released models",
    "revoke_device": "paper V: model-key revocation",
    "unwrap_model": "paper V: on-device model decryption",
    "randomized_response": "paper III-B: anonymized statistics (local differential privacy)",
    "epsilon_for_flip_probability": "paper III-B: anonymized statistics (local differential privacy)",
    "privatize_histogram": "paper III-B: anonymized statistics (local differential privacy)",
    "debias_histogram": "paper III-B: anonymized statistics (local differential privacy)",
    "laplace_mechanism": "paper III-B: anonymized statistics (local differential privacy)",
    "ConnectivityTrace": "paper III-B: intermittent connectivity, used via FaultInjector(connectivity=)",
    "verify_compiled_run": "paper VI: verifiable execution of a compiled plan",
    "run_partial": "paper VI: split TEE execution (Slalom-style)",
    "pseudo_label": "paper III-D: federated learning on largely unlabeled data",
    "drop_labels": "paper III-D: federated learning on largely unlabeled data",
    "structured_prune_dense": "paper II: structured pruning as a TinyML efficiency lever",
    "grant_capabilities": "paper IV: the capability sandbox placement honours",
    # Decided by another ROADMAP item.
    "transmission_cost": "ROADMAP 18b decides the uplink cost model",
    "transfer_cost": "ROADMAP 18b decides the uplink cost model",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_defs(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level and class-body definitions, recursing into classes."""
    for node in body:
        if isinstance(node, _DEFS):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                yield from _public_defs(node.body)


def _is_all(node: ast.AST) -> bool:
    """Whether ``node`` assigns or extends ``__all__``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _referenced(node: ast.AST) -> Optional[str]:
    """The name ``node`` references, if it is a reference at all."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _references(tree: ast.Module, is_init: bool) -> Set[str]:
    """Names the module references, by the rule in the module docstring."""
    found: Set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if _is_all(node) or (is_init and isinstance(node, (ast.Import, ast.ImportFrom))):
            return
        name = _referenced(node)
        if name is not None and name not in inside:
            found.add(name)
        if isinstance(node, _DEFS):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def scan(root: Path = ROOT) -> Tuple[Dict[str, List[str]], Set[str]]:
    """``(definitions, references)`` under ``root``: where each public name
    of ``src/repro`` is defined, and every name the corpus references."""
    src = root / "src" / "repro"
    defined: Dict[str, List[str]] = {}
    referenced: Set[str] = set()
    for top in CORPUS:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            referenced |= _references(tree, path.name == "__init__.py")
            if path.is_relative_to(src):
                for node in _public_defs(tree.body):
                    where = f"{path.relative_to(root)}:{node.lineno}"
                    defined.setdefault(node.name, []).append(where)
    return defined, referenced


def dead_names(root: Path = ROOT, allowlist: Dict[str, str] = ALLOWLIST) -> List[str]:
    """Public names nothing references, and allowlist entries that no longer hold."""
    defined, referenced = scan(root)
    dead = [
        f"{name} ({', '.join(where)})"
        for name, where in defined.items()
        if name not in referenced and name not in allowlist
    ]
    for name, reason in allowlist.items():
        if name not in defined:
            dead.append(f"{name}: allowlisted but not defined")
        elif name in referenced:
            dead.append(f"{name}: allowlisted but now has a caller")
        if not reason.strip():
            dead.append(f"{name}: allowlisted without a reason")
    return sorted(dead)


def test_no_public_name_is_dead():
    dead = dead_names()
    assert not dead, "public names nothing outside tests/ references (delete them or allowlist them):\n  " + "\n  ".join(dead)


# -- the rule itself, on synthetic trees ----------------------------------------

def _tree(root: Path, files: Dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def _word_rule_dead(root: Path) -> Set[str]:
    """The rule this guard replaced: any word in ``src/``, ``tests/``,
    ``benchmarks/`` or ``examples/`` outside ``__all__`` lists and
    ``__init__`` re-exports counts as a use."""
    defined, _ = scan(root)
    uses: Counter = Counter()
    for path in root.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        skipped = set()
        for node in ast.parse(text).body:
            if _is_all(node) or (path.name == "__init__.py" and isinstance(node, ast.ImportFrom)):
                skipped.update(range(node.lineno, node.end_lineno + 1))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if lineno not in skipped:
                uses.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line))
    return {name for name, where in defined.items() if uses[name] <= len(where)}


_MISSED_BY_WORDS = {
    "docstring": {
        "src/repro/mod.py": "def used():\n    pass\n\n\ndef ghost():\n    pass\n",
        "examples/run.py": '"""Calls used(); ghost() is only prose here."""\nfrom repro.mod import used\n\nused()\n',
    },
    "super": {
        "src/repro/mod.py": (
            "class Base:\n    def ghost(self):\n        return {}\n\n\n"
            "class Child(Base):\n    def ghost(self):\n        return super().ghost()\n"
        ),
        "examples/run.py": "from repro.mod import Child\n\nChild()\n",
    },
    "tests-only": {
        "src/repro/mod.py": "def ghost():\n    pass\n",
        "tests/test_mod.py": "from repro.mod import ghost\n\n\ndef test_ghost():\n    ghost()\n",
    },
}


@pytest.mark.parametrize("case", sorted(_MISSED_BY_WORDS))
def test_flags_what_the_word_rule_missed(tmp_path, case):
    root = _tree(tmp_path, _MISSED_BY_WORDS[case])
    assert [d.split()[0] for d in dead_names(root, {})] == ["ghost"]
    assert "ghost" not in _word_rule_dead(root)


def test_exact_string_dispatch_is_a_reference(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/scenarios.py": (
            'SCENARIOS = ("steady",)\n\n\ndef steady():\n    pass\n\n\n'
            "def run(name):\n    return globals()[name]()\n"
        ),
        "examples/run.py": "from repro.scenarios import SCENARIOS, run\n\nrun(SCENARIOS[0])\n",
    })
    assert dead_names(root, {}) == []


def test_all_and_init_reexports_are_not_references(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": 'from .mod import ghost\n\n__all__ = ["ghost"]\n',
        "src/repro/mod.py": '__all__ = ["ghost"]\n\n\ndef ghost():\n    pass\n',
    })
    assert [d.split()[0] for d in dead_names(root, {})] == ["ghost"]


@pytest.mark.parametrize(
    "allowlist, problem",
    [
        ({"gone": "kept for a suite"}, "gone: allowlisted but not defined"),
        ({"called": "kept for a suite"}, "called: allowlisted but now has a caller"),
        ({"ghost": " "}, "ghost: allowlisted without a reason"),
    ],
)
def test_stale_allowlist_entries_fail(tmp_path, allowlist, problem):
    root = _tree(tmp_path, {
        "src/repro/mod.py": "def called():\n    pass\n\n\ndef ghost():\n    pass\n",
        "examples/run.py": "from repro.mod import called\n\ncalled()\n",
    })
    assert problem in dead_names(root, {"ghost": "kept for a suite", **allowlist})


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
        elif _is_all(node):
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
