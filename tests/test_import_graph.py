"""The modules of the package import one another without a cycle, the
exact solvers reach no approximate one, and every exported function is
used by the package or a demo, not only by the tests.

Every import statement counts, including one inside a function body, so a
cycle or a layering break cannot come back through a local import.
"""

import ast
import inspect
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


# Exported functions that no module or demo needs to call.  The paper's
# abortable forcing run is part of the public API in its own right:
# `run_maximin` plays it epoch by epoch through `ForcingState`, and the
# acceptance criteria run it whole.
TEST_ONLY_ALLOWED = {"run_blackwell_abort"}


def names_read(path: Path) -> set:
    """Names that the source of `path` reads, as a variable or an attribute.

    A `def` or an import binds its name without reading it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def exported_functions() -> set:
    import menuopt

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    return {name for name in names if inspect.isfunction(getattr(menuopt, name))}


def test_every_exported_function_is_used_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((PACKAGE.parents[1] / "demos").glob("*.py"))
    used = set().union(*(names_read(p) for p in sources))
    unused = exported_functions() - used
    assert unused == TEST_ONLY_ALLOWED, f"only tests call {sorted(unused - TEST_ONLY_ALLOWED)}"

