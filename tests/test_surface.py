"""The library carries no code that only its tests reach.

Every top-level function, class and constant of ``src/natmap``, and every
method, must be named somewhere in the code of ``src/natmap`` or ``perfbench/``,
the benchmark's tests aside, outside its own definition: as a name, an attribute, an imported name, or
a word of a string constant (the benchmark's tracer looks functions up by
the names in its strings).  The class tested by ``isinstance`` does not
count: a type that only its own ``isinstance`` branch names is never
built.  Dunder names are exempt.  Code that only a
test calls belongs in the tests, with ``_oracles`` for reference
computations.

Nor does it carry options that no caller sets: every defaulted parameter
of a function or method of ``src/natmap``, and every defaulted field of a
``@dataclass`` there, must be passed, by keyword or by position, in some
call in the same code, matched by the callee's name (a class name for
``__init__`` and for a dataclass).  A call with ``*args`` or ``**kwargs``
counts as passing every position or keyword.  An option only a test sets is
a constant.

Nor does it carry defaults that no caller relies on: every such parameter
and field must also be left to its default by some call in the same code.
A default that every call overrides is a required parameter.
"""

import ast
import re
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "natmap"
USERS = (LIBRARY, ROOT / "perfbench")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named under ``tree``, the second
    argument of ``isinstance`` aside."""
    tested = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              for sub in ast.walk(node.args[1])}
    out = Counter()
    for node in ast.walk(tree):
        if id(node) in tested:
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def _definitions(tree: ast.Module):
    """(name, defining node) of each function, class, method and
    module-level constant."""
    for node in tree.body:
        if isinstance(node, DEFINITION):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((sub.name, sub) for sub in node.body
                            if isinstance(sub, DEFINITION))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((sub.id, node) for target in targets
                        for sub in ast.walk(target) if isinstance(sub, ast.Name))


def _user_trees() -> dict:
    # the benchmark's own tests do not count as users
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for root in USERS for path in sorted(root.glob("*.py"))
            if not path.name.startswith("test_")}


def unnamed_definitions() -> list[str]:
    trees = _user_trees()
    named = sum((_names(tree) for tree in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        if path.parent != LIBRARY:
            continue
        for name, node in _definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and named[name] <= _names(node)[name]:
                out.append(f"{path.stem}.{name}")
    return out


def test_every_definition_is_named_outside_itself():
    unnamed = unnamed_definitions()
    assert not unnamed, (f"{len(unnamed)} definitions named nowhere in the library "
                         f"or the benchmark: {', '.join(unnamed)}")


def _defaulted(node: ast.FunctionDef) -> list:
    """(position or None for keyword-only, name) of each defaulted parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i, positional[i].arg) for i in range(first, len(positional))]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _called_name(node: ast.expr):
    """``f`` of a decorator or call target ``f``, ``m.f``, ``f(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _dataclass_fields(node: ast.ClassDef) -> list:
    """(position, name) of each defaulted field of a ``@dataclass``: its
    ``__init__`` binds the fields by position in field order and by keyword,
    and a ``field(init=False, ...)`` not at all."""
    fields = [sub for sub in node.body if isinstance(sub, ast.AnnAssign)
              and not any(k.arg == "init" for k in getattr(sub.value, "keywords", ()))]
    return [(i, sub.target.id) for i, sub in enumerate(fields) if sub.value is not None]


def _functions(tree: ast.Module):
    """(callee name, number of leading parameters a call binds implicitly,
    definition name, defaulted parameters) of each top-level function and
    method, and of the generated ``__init__`` of each ``@dataclass``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, 0, node.name, _defaulted(node)
        elif isinstance(node, ast.ClassDef):
            if any(_called_name(d) == "dataclass" for d in node.decorator_list):
                yield node.name, 0, node.name, _dataclass_fields(node)
            for sub in node.body:
                if isinstance(sub, functions):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    name = node.name if sub.name == "__init__" else sub.name
                    yield name, 0 if static else 1, sub.name, _defaulted(sub)


def _defaulted_parameters():
    """(label, whether each call to it passes it) of each defaulted
    parameter and field of the library, over the calls in the library and
    the benchmark."""
    trees = _user_trees()
    # callee name -> (positional argument count, keyword names) per call;
    # None stands for a ** argument
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls[_called_name(node)].append(
                    (float("inf") if starred else len(node.args),
                     {k.arg for k in node.keywords}))
    for path, tree in trees.items():
        if path.parent != LIBRARY:
            continue
        for name, bound, where, defaulted in _functions(tree):
            for index, param in defaulted:
                yield f"{path.stem}.{where}({param})", [
                    param in kws or None in kws
                    or (index is not None and n + bound > index)
                    for n, kws in calls[name]]


def never_set_parameters() -> list[str]:
    return [label for label, passed in _defaulted_parameters() if not any(passed)]


def always_set_parameters() -> list[str]:
    return [label for label, passed in _defaulted_parameters() if passed and all(passed)]


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = never_set_parameters()
    assert not unset, (f"{len(unset)} defaulted parameters that no call in the library "
                       f"or the benchmark sets: {', '.join(unset)}")


def test_every_default_is_left_by_a_caller():
    overridden = always_set_parameters()
    assert not overridden, (f"{len(overridden)} defaults that every call in the library "
                            f"or the benchmark overrides: {', '.join(overridden)}")
