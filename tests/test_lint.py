"""Static checks that keep dead code out of the package.

(a) Every module-level import of `src/curlsharp/*.py` is used in its
module; a name listed in the module's `__all__` counts as used.

(b) Every top-level function or class and every non-dunder method of a
top-level class is reached by name from `src/`, `bench/` or `demos/`
outside its own definition, is exported through `curlsharp.__all__`, or
is on the short allowlist below.  A reference is an identifier in the
code (a name or an attribute) or a string constant that is a dotted name,
such as the `"MultiPoly.subs"` specs `bench/tracer.py` patches.
Docstrings and comments are not references.

(c) No function in `src/curlsharp` mutates a dict, list or set bound at
module level: no subscript assignment or `del` on it, and no call of a
mutating method (`pop`, `append`, `update`, `setdefault`, `add`,
`extend`, `clear` and the like).  Such a container is state shared by
every caller in the process; state a call needs belongs to an object the
caller creates and passes.  A local name that shadows the module-level
one is not the module's container.

(d) No call in `src/curlsharp` passes `indent=` to `json.dumps` or
`json.dump`.  Every JSON document goes through `cli._json`, which writes
the indented layout on the C encoder; an `indent` argument would start a
second, pure-Python encoder beside it.

(e) No module of `src/curlsharp` imports scipy, at module level or inside
a function.  numpy is the only runtime dependency: the Gauss-Legendre
rule and the Legendre values come from one recurrence in `spectral`.

(f) No `assert` statement in `src/curlsharp`.  `python -O` strips them,
so an invariant stated with one stops firing there; the package raises
a real exception instead.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curlsharp"
SCAN_DIRS = [ROOT / "src", ROOT / "bench", ROOT / "demos"]

# Public API that only the tests reach, each kept for a stated reason.
ALLOWLIST = {
    "MultiPoly.eval": "exact point evaluation, the reference that tests "
                      "check substitution and the float paths against",
    "Profile.norm2": "L2 norm of a profile, the reference for the frozen "
                     "closed-form norms BUMP_NORM2 and COS4_NORM2",
    "IntervalQ.real_line": "the whole-line interval of the nonnegativity "
                           "API, the counterpart of the half-line default",
    "IntervalQ.at_least": "the half-line [lo, oo) of the nonnegativity API; "
                          "the corpus writes its intervals as text",
    "IntervalQ.at_most": "the half-line (-oo, hi] of the nonnegativity API; "
                         "the corpus writes its intervals as text",
    "AnalyticFieldBundle.potential": "the scalar potential whose gradient "
                                     "the oracle's field must be",
    "AnalyticFieldBundle.u_cart": "the field at a point, which the analytic "
                                  "Jacobian is finite-differenced against",
    "__getattr__": "module hook that loads `spectral` lazily for "
                   "`curlsharp.NonPositiveFormError`",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _docstring_nodes(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, line) for every identifier the code uses."""
    docs = _docstring_nodes(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            text = node.value.replace("[*]", "")
            if _DOTTED.fullmatch(text):
                out += [(name, node.lineno) for name in text.split(".")]
    return out


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _sources() -> dict[Path, ast.Module]:
    return {path: _parse(path) for d in SCAN_DIRS for path in sorted(d.rglob("*.py"))}


def test_no_unused_module_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        exported = _all_names(tree)
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        used = {name for name, _ in _references(tree)} | exported
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in used]
    assert not unused, unused


def _definitions(tree: ast.Module):
    """(qualified name, short name, (first line, last line)) of each
    top-level function and class and each non-dunder method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        yield node.name, node.name, (first, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, defs)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    yield (f"{node.name}.{item.name}", item.name,
                           (first, item.end_lineno))


def test_every_definition_is_reached():
    sources = _sources()
    exported = _all_names(sources[PACKAGE / "__init__.py"])
    refs = {path: _references(tree) for path, tree in sources.items()}
    dead = []
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, (first, last) in _definitions(sources[path]):
            defined.add(qualname)
            if qualname in ALLOWLIST or name in exported:
                continue
            # a use inside the definition's own lines (recursion) is not a caller
            if any(ref == name and (other != path or not first <= line <= last)
                   for other, found in refs.items() for ref, line in found):
                continue
            dead.append(f"{path.name}:{first} {qualname}")
    assert not dead, dead
    assert set(ALLOWLIST) <= defined, set(ALLOWLIST) - defined


_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_MUTATORS = {"pop", "popitem", "append", "insert", "update", "setdefault",
             "add", "discard", "remove", "extend", "clear"}


def _is_container(node: ast.AST) -> bool:
    return (isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _CONTAINER_CALLS))


def _module_containers(tree: ast.Module) -> set[str]:
    """Names that module-level statements bind to a dict, list or set."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and _is_container(node.value) and isinstance(node.target, ast.Name)):
            out.add(node.target.id)
    return out


def _local_names(func) -> set[str]:
    """Parameters and names a function (or a function nested in it) binds,
    less those it declares global."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared_global = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    return names - declared_global


def test_no_function_mutates_module_containers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        containers = _module_containers(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            shared = containers - _local_names(func)
            for node in ast.walk(func):
                if (isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, (ast.Store, ast.Del))):
                    target, how = node.value, "item assignment or del"
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATORS):
                    target, how = node.func.value, f".{node.func.attr}()"
                else:
                    continue
                if isinstance(target, ast.Name) and target.id in shared:
                    found.add(f"{path.name}:{node.lineno} {target.id} {how}")
    assert not found, sorted(found)


def test_no_indented_json_dumps():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if (name in ("dumps", "dump")
                    and any(kw.arg == "indent" for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_scipy_import():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_assert_statement():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_parse(path)) if isinstance(node, ast.Assert)]
    assert not found, found


def test_numeric_modules_load_without_scipy():
    code = ("import sys\n"
            "import curlsharp.cli, curlsharp.spectral, curlsharp.oracle\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout
