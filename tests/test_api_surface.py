"""Every public function, class and public-class method of the package has a caller in the program.

A name only the tests call is API without a user: the tests then pin code
that the program never runs.  References are collected with ``ast``: names
and attribute accesses in ``src/``, plus attribute accesses and string
constants in ``perfbench/*.py``, which reaches names through ``setattr``
strings.  Definitions, imports, docstrings and comments are not references.
The angle laws also keep one NumPy path each: no function of ``analytic``,
``population`` or ``channel`` branches on ``isinstance(..., float)`` or
``bool``.  And ``config`` is the one place a config value is checked: no
``__post_init__`` raises, except where it checks what no key's interval states,
and the engines (``analytic``, ``quadrature``, ``scheduling``, ``simulate``)
raise no ``ValueError`` of their own for what config or their callers
already guarantee: only a scheme without its thresholds and an empty sample.
Every sampling bound comes from ``stats``: no other file of the package or
the tests types the CI's z, validate's check width or the DKW bound.
"""

import ast
from pathlib import Path

from vlcnoma import stats

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vlcnoma"


def _public(name):
    return not name.startswith("_")


def definitions():
    """{(module, qualified name)} of the package's public functions, classes and public-class methods."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                out.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef) and _public(node.name):
                out.update((path.stem, f"{node.name}.{item.name}") for item in node.body
                           if isinstance(item, ast.FunctionDef) and _public(item.name))
    return out


def references():
    """Every name the program reads: in the package, and what the benchmark harness looks up."""
    out = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_public_name_has_a_caller_in_the_program():
    used = references()
    unused = sorted(f"{module}.{name}" for module, name in definitions() if name.rsplit(".", 1)[-1] not in used)
    assert not unused, f"public names with no reference outside the tests: {unused}"


def _bare_name(func):
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def defaulted_parameters():
    """{(module, function, parameter): positional index} of every parameter with a default in the package.

    Functions nested anywhere count, private ones too.  A method's index
    leaves out ``self``/``cls``, as calls through an instance or class pass it
    implicitly; keyword-only parameters have no index (None).
    """
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, ast.FunctionDef)
                   and not any(_bare_name(d) == "staticmethod" for d in item.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = (args.posonlyargs + args.args)[1 if id(node) in methods else 0:]
            for i in range(len(positional) - len(args.defaults), len(positional)):
                out[(path.stem, node.name, positional[i].arg)] = i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[(path.stem, node.name, arg.arg)] = None
    return out


def program_calls():
    """{bare callee name: [(positional count, keyword names)]} of every call in ``src/`` and ``perfbench/*.py``.

    A ``*args`` or ``**kwargs`` argument counts as passing every parameter.
    """
    out = {}
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _bare_name(node.func):
                spread = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
                count = float("inf") if spread else len(node.args)
                names = {k.arg for k in node.keywords}
                out.setdefault(_bare_name(node.func), []).append((count, names))
    return out


def test_every_defaulted_parameter_is_set_by_a_program_call():
    # a default no program call overrides is a constant in disguise: the tests then pin an option nobody uses
    calls = program_calls()
    unset = sorted(
        f"{module}.{function}({param})" for (module, function, param), index in defaulted_parameters().items()
        if not any(param in names or None in names or (index is not None and count > index)
                   for count, names in calls.get(function, ()))
    )
    assert not unset, f"defaulted parameters no call in src/ or perfbench/ passes: {unset}"


def test_angle_laws_have_no_scalar_twin():
    # a branch on float or bool beside the NumPy path is a second implementation of the same law, and its bits drift
    twins = []
    for stem in ("analytic", "population", "channel"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        for function in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and _bare_name(node.func) == "isinstance" and len(node.args) == 2):
                    continue
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(_bare_name(kind) in ("float", "bool") for kind in kinds):
                    twins.append(f"{stem}.{function.name} (line {node.lineno})")
    assert not twins, f"isinstance checks on float or bool: {sorted(set(twins))}"


# the NomaConfig margin and a scheme without its thresholds span several values
POST_INIT_CHECKS = {"link.NomaConfig", "scheduling.FeedbackScheme"}


def test_domain_types_leave_intervals_to_config():
    # a __post_init__ that restates a key's interval is a second statement of it, in other units and words
    raising = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in (node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
                        and any(isinstance(node, ast.Raise) for node in ast.walk(method))):
                    raising.add(f"{path.stem}.{cls.name}")
    assert raising <= POST_INIT_CHECKS, f"__post_init__ methods that raise: {sorted(raising - POST_INIT_CHECKS)}"


ENGINE_VALUE_ERRORS = {"scheduling.FeedbackScheme.__post_init__", "simulate.EmpiricalCdf.__init__"}


def test_engines_leave_checked_values_to_config():
    # a rank, kind, role or tolerance guard in an engine restates what config or the engine's caller already holds
    raising = set()
    for stem in ("analytic", "quadrature", "scheduling", "simulate"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        scopes = [(f"{stem}.{node.name}", node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [(f"{stem}.{cls.name}.{item.name}", item) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)]
        for name, function in scopes:
            for node in ast.walk(function):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    if _bare_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "ValueError":
                        raising.add(name)
    unexpected = sorted(raising - ENGINE_VALUE_ERRORS)
    assert not unexpected, f"engine functions that raise ValueError: {unexpected}"


def _is_call(node, name):
    return isinstance(node, ast.Call) and _bare_name(node.func) == name


def _is_constant(node, value):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == value


def typed_bounds(tree):
    """(line, what) of each sampling bound that ``tree`` types out instead of calling ``stats`` for it."""
    for node in ast.walk(tree):
        if _is_constant(node, stats.Z_CI):
            yield node.lineno, "the CI's z"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for width, spread in ((node.left, node.right), (node.right, node.left)):
                if _is_constant(width, stats.CHECK_SIGMAS) and (
                        _is_call(spread, "sqrt") or isinstance(spread, ast.Name) and "sigma" in spread.id):
                    yield node.lineno, "the check width"
        elif _is_call(node, "sqrt") and any(
                _is_call(inner, "log") and inner.args and isinstance(inner.args[0], ast.BinOp)
                and isinstance(inner.args[0].op, ast.Div) and _is_constant(inner.args[0].left, 2)
                for inner in ast.walk(node)):
            yield node.lineno, "the DKW bound"


def test_sampling_bounds_come_from_stats():
    # a bound typed out beside stats is a second statement of it: a change of z, width or alpha would miss it
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    typed = [f"{path.relative_to(ROOT)}:{line} ({what})" for path in paths if path.name != "stats.py"
             for line, what in sorted(typed_bounds(ast.parse(path.read_text())))]
    assert not typed, f"sampling bounds typed outside stats.py: {typed}"


def test_stats_imports_only_math_and_numpy():
    # every command imports stats, so what it imports adds to the start-up time of each
    tree = ast.parse((PACKAGE / "stats.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"math", "numpy"}, f"stats imports {sorted(imported)}"
