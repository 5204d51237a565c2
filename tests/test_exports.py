"""Design rules: every definition in the package has a caller outside the
tests, every default has a call that leaves it out and one that passes it,
no default copies a `RunConfig` default, every import and every parameter is
used, and so `src/` holds only what a run uses.

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
method in `src/tmknet/*.py`, and a field with a default of a dataclass there,
must be passed by some call in `src/` or `perfbench/`: a default that every
caller keeps is a constant, and a field that no call passes is state, which
`field(init=False)` declares. Conversely, some call must leave each default
out: a default that every call overrides is a second copy of a value its
callers hold. Calls are matched to a definition by name only, so a call of
any function, method or class of that name counts; a `cls(...)` call in a
classmethod calls its class. A call passes a parameter by keyword or by
position. A `*` or `**` splat may pass any parameter and may leave any out,
so it counts as passing for the first rule and as leaving out for the
second. Matching by name is what keeps the rules simple, and it is also
their blind spot: a parameter is missed whenever another callable shares the
name, as numpy's `ndarray.transpose(*axes)` shares `autodiff.transpose`'s.

A run setting has its default in `RunConfig` alone, so no other parameter or
dataclass field may default to `RunConfig`'s default for the field of its
name. And each name that an import in `src/tmknet/*.py` binds must be used
in its module, or listed in its `__all__`. No function there rebinds a
module-level name through a `global` statement: state that outlives a call
belongs to an object its caller holds.

Every parameter of a function or method there, nested ones included, is
read somewhere in its body, a closure's read included: a parameter that
nothing reads is a value each caller computes for nothing. A method's
`self` or `cls` is exempt, as are lambdas, whose parameters the spectral
table's rows share by contract.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tmknet"
PERFBENCH = ROOT / "perfbench"

# name -> why it stays although no code outside the tests calls it
ALLOWED = {
    "geometry.airm_dist": "library entry point: the affine-invariant distance, checked "
                          "by acceptance criterion 1",
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
}

# function or dataclass -> why it keeps defaults that every call in src/ or
# perfbench/ overrides, or that equal RunConfig's
DEFAULTS_ALLOWED = {
    "autodiff.sum_": "axis and keepdims default to a full reduction, the scalar loss "
                     "sum_(x) of the gradient tests",
    "data.SynthSpec": "library config: seed defaults to 0 for a caller who wants any "
                      "synthetic dataset",
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
    """Each entry names a definition that still has no caller: an entry whose
    definition is gone, or has since gained a caller, is stale."""
    stale = set(ALLOWED) - set(_unreferenced())
    assert not stale, sorted(stale)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


NOT_INIT = object()  # `_field_default` of a field that is no parameter of `__init__`


def _field_default(value: ast.expr | None):
    """The default of a dataclass field with this right-hand side: the
    expression (a `default_factory` for a factory), None without one, and
    NOT_INIT when the field is no parameter of `__init__` (`field(init=False)`)."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return value
    keywords = {k.arg: k.value for k in value.keywords}
    if isinstance(keywords.get("init"), ast.Constant) and keywords["init"].value is False:
        return NOT_INIT
    return keywords.get("default", keywords.get("default_factory"))


def _signatures():
    """Yield (qualified name, name, parameters, `**` name or None, file,
    first line, last line) per module-level function, method and dataclass.
    `parameters` holds (name, position in a call or None, default expression
    or None) per parameter that a call can pass; a method's self or cls is
    not one. The lines are the body a call from itself is not counted in: a
    function's, and none for a dataclass, whose methods construct it as any
    caller does.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            functions = []
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{mod}.{node.name}", node, 0))
            if isinstance(node, ast.ClassDef):
                functions += [(f"{mod}.{node.name}.{item.name}", item, 1)
                              for item in node.body if isinstance(item, ast.FunctionDef)]
            for qual, fn, bound in functions:
                a = fn.args
                positional = a.posonlyargs + a.args
                first_default = len(positional) - len(a.defaults)
                params = [(arg.arg, i - bound,
                           a.defaults[i - first_default] if i >= first_default else None)
                          for i, arg in enumerate(positional) if i >= bound]
                params += [(arg.arg, None, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults)]
                yield (qual, fn.name, params, a.kwarg and a.kwarg.arg, path,
                       fn.lineno, fn.end_lineno)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [(item.target.id, _field_default(item.value)) for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(item.annotation)]
                params = [(name, i, default) for i, (name, default)
                          in enumerate((f for f in fields if f[1] is not NOT_INIT))]
                yield f"{mod}.{node.name}", node.name, params, None, path, 0, -1


def _calls():
    """Yield (name, call, file) per call in src/ and perfbench/, named by the
    function or attribute it calls; a `cls(...)` call in a classmethod is a
    call of its class."""
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and any(
                        getattr(d, "id", None) == "classmethod" for d in item.decorator_list):
                    owner.update({id(n): cls.name for n in ast.walk(item)
                                  if isinstance(n, ast.Call)
                                  and getattr(n.func, "id", None) == "cls"})
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                yield owner.get(id(node), name), node, path


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` may pass `param`: a `*` or `**` splat may pass anything."""
    return (any(k.arg in (None, param) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def _surely_passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` passes `param` whatever its splats hold."""
    spelled = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                   len(call.args))
    return (any(k.arg == param for k in call.keywords)
            or (position is not None and spelled > position))


def _named_calls():
    """Yield (qualified name, parameters, `**` name or None, calls) per
    signature, with the calls of its name in src/ and perfbench/ outside its
    own body."""
    calls = list(_calls())
    for qual, name, params, kwarg, path, first, last in _signatures():
        yield qual, params, kwarg, [c for n, c, p in calls
                                    if n == name and (p != path or not first <= c.lineno <= last)]


def _unpassed_parameters():
    """Yield (qualified name, parameter) per default or `**kwargs` that no
    call of that name in src/ or perfbench/ passes."""
    for qual, params, kwarg, named in _named_calls():
        for param, position, default in params:
            if default is not None and not any(_passes(c, param, position) for c in named):
                yield qual, param
        known = {param for param, *_ in params}
        if kwarg is not None and not any(k.arg not in known
                                         for c in named for k in c.keywords):
            yield qual, "**" + kwarg


def _overridden_defaults():
    """Yield (qualified name, parameter) per default that every call of that
    name in src/ or perfbench/ passes, when there is such a call."""
    for qual, params, _, named in _named_calls():
        for param, position, default in params:
            if (default is not None and named
                    and all(_surely_passes(c, param, position) for c in named)):
                yield qual, param


def test_every_optional_parameter_is_passed_by_some_call():
    unpassed = [f"{q}({p})" for q, p in _unpassed_parameters() if q not in PARAMS_ALLOWED]
    assert not unpassed, f"optional parameters no call in src/ or perfbench/ passes: {unpassed}"


def test_parameter_allowlist_names_functions_with_unpassed_parameters():
    assert set(PARAMS_ALLOWED) <= {q for q, _ in _unpassed_parameters()}


def test_no_default_is_overridden_by_every_call():
    overridden = [f"{q}({p})" for q, p in _overridden_defaults() if q not in DEFAULTS_ALLOWED]
    assert not overridden, f"defaults every call in src/ or perfbench/ overrides: {overridden}"


def test_default_allowlist_names_overridden_defaults():
    assert set(DEFAULTS_ALLOWED) <= {q for q, _ in _overridden_defaults()}


def _value(node: ast.expr):
    """The value a default expression spells, or its source text when it is
    no literal."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return ast.unparse(node)


def _run_config_copies():
    """Yield (qualified name, parameter) per default equal to `RunConfig`'s
    default for the field of the same name."""
    signatures = [(qual, params) for qual, _, params, *_ in _signatures()]
    run = {param: _value(default) for qual, params in signatures
           if qual == "experiment.RunConfig" for param, _, default in params}
    for qual, params in signatures:
        for param, _, default in params:
            if (qual != "experiment.RunConfig" and default is not None and param in run
                    and _value(default) == run[param]):
                yield qual, param


def test_no_default_copies_a_run_config_default():
    """A run setting has its default in `RunConfig` only: a second copy
    silently takes over for a caller that forgets to pass the setting."""
    copies = [f"{q}({p})" for q, p in _run_config_copies() if q not in DEFAULTS_ALLOWED]
    assert not copies, f"defaults that copy RunConfig's: {copies}"


def _unused_imports():
    """Yield module.name per name that an import in `src/tmknet/*.py` binds
    and its module never uses; a name its `__all__` lists is used (re-exported)."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = [a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None)
                                                              for t in node.targets]:
                used |= {elt.value for elt in node.value.elts}
        yield from (f"{path.stem}.{name}" for name in bound if name not in used)


def test_every_import_is_used():
    unused = list(_unused_imports())
    assert not unused, f"imported but never used: {unused}"


def test_no_global_statement():
    rebinds = [f"{path.stem}:{node.lineno} global {', '.join(node.names)}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Global)]
    assert not rebinds, f"module state rebound by functions: {rebinds}"


def _unread_parameters():
    """Yield module.function.parameter per parameter of a `def` in
    `src/tmknet/*.py` that no name in its body loads."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {id(item): f"{node.name}." for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            params = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg) if arg is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            yield from (f"{path.stem}.{scope.get(id(fn), '')}{fn.name}.{p}" for p in params
                        if p not in ("self", "cls") and p not in read)


def test_every_parameter_is_read():
    unread = list(_unread_parameters())
    assert not unread, f"parameters their function never reads: {unread}"
