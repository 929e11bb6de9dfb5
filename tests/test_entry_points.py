"""The benchmark's traced entry points exist in ``aglab``, and nothing else is kept for tests alone.

``perfbench/tracing.py`` patches each entry point by its module and
attribute path, so renaming one of them in ``src/`` breaks the benchmark.
This check loads that file by path and resolves every path, so such a
rename fails here as well as in ``pytest perfbench``.

The second check parses the package and fails on a function, class or
method that no program code calls, and on an error that no program code
raises.  The third fails when a module names a ``_``-prefixed attribute
of another module of the package, save the ones the benchmark patches.
The fourth fails on a function that takes a grid or a flow and, beside
it, the domain or the cell size h that the grid or flow already carries.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import aglab.cli  # loads every module the entry points name
from aglab.errors import AglabError

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.ENTRY_POINTS


def test_every_traced_entry_point_resolves():
    entry_points = _entry_points()
    assert entry_points
    for name, modname, path, _ in entry_points:
        owner = importlib.import_module(modname)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # the tracer patches the attribute where it is defined: the module's, or the class's own
        assert attr in vars(owner) and callable(getattr(owner, attr)), f"{name}: {modname}.{path} is gone"



PACKAGE = Path(aglab.__file__).resolve().parent


def _dead_code():
    """Definitions of ``aglab`` that no live code names, and errors that no live code raises.

    Every function, class and method is found by name, as the package's
    ``Name``s, ``Attribute``s and ``from ... import``s refer to them.  Code
    at module level is live; a definition is live once a name in live code
    refers to it, and then the names in its body count too, so a helper
    called only from a dead one is dead as well.  A dunder method is live
    with its class.  Decorators and base classes belong to the scope
    around the definition.
    """
    defs = []  # (qualified name, name, index of the enclosing definition or None, is a dunder)
    refs = []  # (name, index of the innermost definition around it, or None)
    raises = []  # (name of the raised class, index of the innermost definition around it, or None)

    def visit(node, owner, prefix):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            outer = [*node.decorator_list, *getattr(node, "bases", ()), *getattr(node, "keywords", ())]
            for child in outer:
                visit(child, owner, prefix)
            name = node.name
            defs.append((prefix + name, name, owner, name.startswith("__") and name.endswith("__")))
            me = len(defs) - 1
            for child in ast.iter_child_nodes(node):
                if not any(child is o for o in outer):
                    visit(child, me, f"{prefix}{name}.")
            return
        if isinstance(node, ast.Name):
            refs.append((node.id, owner))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, owner))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, owner) for alias in node.names)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raises.append((getattr(exc, "id", None) or getattr(exc, "attr", None), owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), None, f"{path.stem}.")

    live = [False] * len(defs)
    changed = True
    while changed:
        named = {name for name, owner in refs if owner is None or live[owner]}
        changed = False
        for k, (_, name, parent, dunder) in enumerate(defs):
            if not live[k] and (parent is None or live[parent] if dunder else name in named):
                live[k] = changed = True
    raised = {name for name, owner in raises if owner is None or live[owner]}

    def subclasses(cls):
        return [s for c in cls.__subclasses__() for s in (c, *subclasses(c))]

    unused = sorted(qual for (qual, *_), ok in zip(defs, live) if not ok)
    return unused, sorted(c.__name__ for c in subclasses(AglabError) if c.__name__ not in raised)


def test_package_holds_no_dead_code():
    # the program calls every helper the package defines, and raises every
    # error it declares; a helper that only tests need belongs in tests/
    unused, unraised = _dead_code()
    assert unused == []
    assert unraised == []


def _private_names_across_modules():
    """(module, name) for each ``_``-prefixed attribute that a module of ``aglab`` takes from another.

    A sibling module is reached as ``from . import mod [as alias]`` and then
    ``alias._name``, or directly as ``from .mod import _name``.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings.update(alias.asname or alias.name for alias in node.names)
                else:
                    found.extend((path.stem, alias.name) for alias in node.names if alias.name.startswith("_"))
        found.extend((path.stem, node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in siblings and node.attr.startswith("_")
                     and not node.attr.startswith("__"))
    return found


def test_modules_use_no_private_name_of_another():
    # the benchmark patches its entry points by name, so those may stay private
    patched = {path.split(".")[-1] for _, _, path, _ in _entry_points()}
    assert [use for use in _private_names_across_modules() if use[1] not in patched] == []


def test_no_function_takes_a_grid_and_its_domain():
    # a covered grid carries its domain and h, and a flow takes both from its grid,
    # so a second argument could only disagree with them
    carried = {"grid": {"domain", "h"}, "flow": {"domain", "h"}}
    both = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                if any(names & carried[name] for name in names & carried.keys()):
                    both.append(f"{path.stem}.{node.name}")
    assert both == []
