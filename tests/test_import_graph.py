"""The modules of the package import one another without a cycle, and the
exact solvers reach no approximate one.

Every import statement counts, including one inside a function body, so a
cycle or a layering break cannot come back through a local import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "menuopt"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def imported_modules(path: Path) -> set:
    """Sibling modules that the source of `path` imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found |= {parts[1] for parts in names if parts[0] == "menuopt" and len(parts) > 1}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "menuopt":
                module = node.module.partition(".")[2]
            else:
                continue
            # `from .core import X` names a module; `from . import lp` names several
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found & MODULES


def graph() -> dict:
    return {name: imported_modules(PACKAGE / f"{name}.py") for name in sorted(MODULES)}


def find_cycle(edges: dict):
    """One import cycle as a list of modules, or None."""
    state = {}  # 1 while on the current path, 2 once finished

    def visit(node, path):
        state[node] = 1
        for nxt in sorted(edges[node]):
            if state.get(nxt) == 1:
                return path[path.index(nxt) :] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = 2
        return None

    for start in sorted(edges):
        if start not in state:
            cycle = visit(start, [start])
            if cycle:
                return cycle
    return None


def test_package_import_graph_is_acyclic():
    cycle = find_cycle(graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


# the exact solvers: the no-regret program and everything it is built from
EXACT_LAYER = {"core", "lp", "menus", "stackelberg", "nr_commitment"}
APPROXIMATE = {"approachability", "general_commitment", "maximin", "playback", "bruteforce", "cli"}


def reachable(edges: dict, start: str) -> set:
    """Modules that `start` imports directly or through other modules."""
    seen, todo = set(), [start]
    while todo:
        for nxt in edges[todo.pop()] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def test_exact_layer_imports_no_approximate_module():
    edges = graph()
    assert EXACT_LAYER | APPROXIMATE <= MODULES
    for name in sorted(EXACT_LAYER):
        bad = reachable(edges, name) & APPROXIMATE
        assert not bad, f"{name} imports {sorted(bad)}"


def test_reachable_follows_imports_through_other_modules():
    assert reachable({"a": {"b"}, "b": {"c"}, "c": set()}, "a") == {"b", "c"}


def test_function_level_imports_are_edges(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from . import lp\n\ndef f():\n    from .playback import simulate\n")
    assert imported_modules(src) == {"lp", "playback"}


def test_cycle_finder_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None
