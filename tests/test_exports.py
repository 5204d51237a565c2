"""Design rules: every definition in the package has a caller outside the
tests, and every optional parameter has a call that passes it.

Each module-level function or class in `src/tmknet/*.py`, and each public
method of a module-level class, must be referenced somewhere in `src/` or
`perfbench/` outside its own definition. A module-level name is referenced
by a use of it in its own module, a use of it after `from ... import`, or an
attribute of its module; importing it is not a use. A method is referenced
by any attribute of its name. In `perfbench/`, whose tracer patches
attributes by name, a string equal to the name counts too.

Dunder methods are reached through syntax (`a + b`, `len(x)`, `x[k]`) rather
than by name, so apart from the construction and repr hooks each one must be
listed below with the code that reaches it, as must the test oracles and
library entry points that only tests call.

A parameter with a default, or a `**kwargs` catch-all, of a function or
method in `src/tmknet/*.py` must be passed by some call in `src/` or
`perfbench/`: a default that every caller keeps is a constant. Calls are
matched to a definition by name only, so a call of any function or method of
that name counts. A call passes a parameter by keyword or by position, and a
`*` or `**` splat passes all of them. Matching by name is what keeps the rule
simple, and it is also its blind spot: a parameter is missed whenever another
callable shares the name, as numpy's `ndarray.transpose(*axes)` shares
`autodiff.transpose`'s.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tmknet"
PERFBENCH = ROOT / "perfbench"

# name -> why it stays although no code outside the tests calls it
ALLOWED = {
    "geometry.karcher_mean": "oracle for DSBN's one-step batch mean (tests/conftest.py)",
    "geometry.frechet_variance": "oracle for DSBN's batch dispersion (tests/conftest.py)",
    "geometry.log_map": "oracle for the parallel-transport and Karcher tests",
    "data.preprocess_stream": "library entry point: windowing, Hampel filter and z-score "
                              "for a raw recording",
    "experiment.domain_dispersion": "library entry point: spread of per-domain feature "
                                    "means, checked by acceptance criterion 10's export test",
    "cli._Parser.error": "argparse calls it on a usage error; the override exits 1 "
                         "through ConfigError",
}

# function -> why it keeps defaulted parameters that no call in src/ or
# perfbench/ passes
PARAMS_ALLOWED = {
    "cli.main": "console-script entry point: argv is None there, a list when the CLI "
                "runs in-process",
    "data.preprocess_stream": "library entry point: n_sigma is the Hampel threshold a "
                              "caller tunes to its recording",
    "geometry.karcher_mean": "test oracle: the tests run the flow from a chosen start, "
                             "for a chosen number of steps, to a chosen tolerance",
}

# hooks the interpreter calls for every instance, so a class's use covers them
IMPLICIT = {"__init__", "__post_init__", "__repr__"}


def _definitions():
    """Yield (qualified name, name, file, first line, last line) per checked
    definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{mod}.{node.name}", node.name, path, node.lineno, node.end_lineno
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name in IMPLICIT:
                    continue
                dunder = item.name.startswith("__") and item.name.endswith("__")
                if dunder or not item.name.startswith("_"):
                    yield (f"{mod}.{node.name}.{item.name}", item.name, path,
                           item.lineno, item.end_lineno)


def _imports(tree: ast.Module):
    """Aliases bound by imports: package modules (None for outside modules),
    and names imported from a package module as (module, name)."""
    modules: dict[str, str | None] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                modules[a.asname or a.name.split(".")[0]] = None
        elif isinstance(node, ast.ImportFrom):
            src = (node.module or "").removeprefix("tmknet").lstrip(".")
            ours = node.level > 0 or (node.module or "").startswith("tmknet")
            for a in node.names:
                alias = a.asname or a.name
                if ours and not src and (PACKAGE / f"{a.name}.py").exists():
                    modules[alias] = a.name
                elif ours and src:
                    names[alias] = (src, a.name)
                else:
                    modules[alias] = None
    return modules, names


def _references():
    """Yield (module or None, name, file, line) per reference. Attributes of
    anything but a module alias carry module None; perfbench strings carry "*"."""
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        in_perfbench = path.parent == PERFBENCH
        here = None if in_perfbench else path.stem
        tree = ast.parse(path.read_text())
        modules, names = _imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id in names:
                    yield (*names[node.id], path, node.lineno)
                elif node.id not in modules:
                    yield here, node.id, path, node.lineno
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if owner in modules:
                    if modules[owner] is not None:
                        yield modules[owner], node.attr, path, node.lineno
                else:
                    yield None, node.attr, path, node.lineno
            elif in_perfbench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield "*", node.value, path, node.lineno


def _unreferenced():
    refs = list(_references())
    dead = []
    for qual, name, path, first, last in _definitions():
        if name.startswith("__"):
            dead.append(qual)  # reached through syntax; needs an ALLOWED entry
            continue
        # a module-level name must be reached through its module; a method
        # through any attribute of that name
        owners = {qual.split(".")[0], "*"} if qual.count(".") == 1 else {None, "*"}
        if not any(mod in owners and ref == name and (p != path or not first <= ln <= last)
                   for mod, ref, p, ln in refs):
            dead.append(qual)
    return dead


def test_every_definition_has_a_caller_outside_the_tests():
    dead = [q for q in _unreferenced() if q not in ALLOWED]
    assert not dead, f"defined but not referenced in src/ or perfbench/: {dead}"


def test_allowlist_names_existing_definitions():
    defined = {qual for qual, *_ in _definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def _signatures():
    """Yield (qualified name, name, arguments, bound, file, first line, last
    line) per module-level function and method; `bound` counts the leading
    arguments a call does not spell (a method's self or cls)."""
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield (f"{mod}.{node.name}", node.name, node.args, 0, path,
                       node.lineno, node.end_lineno)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield (f"{mod}.{node.name}.{item.name}", item.name, item.args, 1, path,
                           item.lineno, item.end_lineno)


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    return (any(k.arg in (None, param) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def _unpassed_parameters():
    """Yield (qualified name, parameter) per defaulted parameter or
    `**kwargs` that no call of that name in src/ or perfbench/ passes."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                calls.append((f.id if isinstance(f, ast.Name) else getattr(f, "attr", None),
                              node, path))
    for qual, name, a, bound, path, first, last in _signatures():
        named = [c for n, c, p in calls
                 if n == name and (p != path or not first <= c.lineno <= last)]
        positional = a.posonlyargs + a.args
        first_default = len(positional) - len(a.defaults)
        optional = {arg.arg: i - bound for i, arg in enumerate(positional) if i >= first_default}
        optional.update({arg.arg: None for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None})
        for param, position in optional.items():
            if not any(_passes(c, param, position) for c in named):
                yield qual, param
        known = {arg.arg for arg in positional + a.kwonlyargs}
        if a.kwarg is not None and not any(k.arg not in known
                                           for c in named for k in c.keywords):
            yield qual, "**" + a.kwarg.arg


def test_every_optional_parameter_is_passed_by_some_call():
    unpassed = [f"{q}({p})" for q, p in _unpassed_parameters() if q not in PARAMS_ALLOWED]
    assert not unpassed, f"optional parameters no call in src/ or perfbench/ passes: {unpassed}"


def test_parameter_allowlist_names_functions_with_unpassed_parameters():
    assert set(PARAMS_ALLOWED) <= {q for q, _ in _unpassed_parameters()}
