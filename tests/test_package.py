import ast
import builtins
import os
import pathlib
import subprocess
import sys

import driftless
from driftless import errors

SRC = pathlib.Path(driftless.__file__).parent


def test_all_exports_resolve():
    missing = [name for name in driftless.__all__ if not hasattr(driftless, name)]
    assert missing == []


def test_runs_without_importing_scipy():
    """The CLI, the desk market, both OCE families and a training run with
    the inv_scale y refit load no scipy module: the desk market's DLV levels
    are constants, y is found by oce's own bisection, and oce ports the one
    scipy routine it needs (log-sum-exp), saving about 0.8 s and 40 MB per
    process."""
    code = """
import sys
import numpy as np
import driftless.cli
from driftless.cli import default_instruments
from driftless.frictions import CostSpec
from driftless.market import build_returns
from driftless.oce import Utility, oce_sup
from driftless.trainer import TrainConfig, train
from driftless.var_model import desk_grid, desk_params, simulate, stationary_init

grid = desk_grid()
params = desk_params(grid)
x = np.random.default_rng(0).normal(size=50)
for family in ("exponential", "adjusted_mean_vol"):
    oce_sup(x, None, Utility(family, 1.0))
bundle = simulate(params, stationary_init(params), 20, 3, seed=1, grid=grid)
rets = build_returns(bundle, default_instruments())
train(bundle, rets, CostSpec(gamma_prop=0.002, mode="marginal"),
      Utility("adjusted_mean_vol", 1.0), TrainConfig(epochs=2, lr=0.01, seed=2, hidden=(8,)),
      inv_scale=np.full(20, 0.9))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_raises_only_package_errors():
    """Every ``raise X(...)`` in the package names a DriftlessError
    subclass, and none raises a builtin exception class, so a caller
    catches every package error as DriftlessError."""
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.attr if isinstance(func, ast.Attribute) else func.id
                cls = getattr(errors, name, None)
                ok = isinstance(cls, type) and issubclass(cls, errors.DriftlessError)
            else:  # a bare name: an exception instance, unless a builtin class
                name = getattr(node.exc, "id", None)
                ok = not isinstance(getattr(builtins, name or "", None), type)
            if not ok:
                foreign.append(f"{path.name}:{node.lineno} {name}")
    assert foreign == []


def test_every_error_class_is_raised():
    """Every DriftlessError subclass in errors.py is raised somewhere in
    the package, so an error class goes with its last raise site."""
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.attr if isinstance(func, ast.Attribute) else func.id)
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.DriftlessError)
               and cls is not errors.DriftlessError}
    assert sorted(classes - raised) == []


def _may_write(call):
    """True for an ``open``/``fdopen`` call whose mode has ``w``, ``a``,
    ``x`` or ``+``, or is not a literal."""
    func = call.func
    if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) not in (
            "open", "fdopen"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def test_one_file_writer_and_no_csv_module():
    """Every file the package writes goes through market.write_text, and no
    module parses or prints CSV with the csv module."""
    csv_imports, writers = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> name of the innermost enclosing function
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owner[child] = (node.name if isinstance(node, ast.FunctionDef)
                                else owner.get(node, "<module>"))
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                csv_imports.append(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                csv_imports.append(path.name)
            if isinstance(node, ast.Call) and _may_write(node):
                writers.append((path.name, owner[node]))
    assert csv_imports == []
    assert writers == [("market.py", "write_text")]


def test_configs_are_read_only_by_the_cli():
    """A config file is read in one place: no class defines ``from_json``,
    and read_json is called only by the CLI's ``_load`` and by
    ``read_bundle`` for a bundle's meta.json.  Every other module parses a
    config from the dict it is given."""
    from_json, readers = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ClassDef):
                    from_json += [f"{path.name} {node.name}" for f in node.body
                                  if isinstance(f, ast.FunctionDef) and f.name == "from_json"]
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) == "read_json":
                    readers.append((path.name, getattr(top, "name", "<module>")))
    assert from_json == []
    assert readers == [("cli.py", "_load"), ("market.py", "read_bundle")]


def test_json_is_written_only_through_market():
    """A JSON artefact has one layout: no class defines ``to_json`` (a
    domain type gives ``to_dict``), only market.py imports json, write_text
    is called only inside market, and write_json only by the CLI and by
    ``write_bundle`` for a bundle's meta.json."""
    to_json, json_imports = [], []
    callers = {"write_text": set(), "write_json": set()}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ClassDef):
                    to_json += [f"{path.name} {node.name}" for f in node.body
                                if isinstance(f, ast.FunctionDef) and f.name == "to_json"]
                if (isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
                        or isinstance(node, ast.ImportFrom) and node.module == "json"):
                    json_imports.append(path.name)
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in callers:
                    callers[name].add((path.name, getattr(top, "name", "<module>")))
    assert to_json == []
    assert json_imports == ["market.py"]
    assert {module for module, _ in callers["write_text"]} == {"market.py"}
    assert {module for module, _ in callers["write_json"]} == {"cli.py", "market.py"}
    assert {c for c in callers["write_json"] if c[0] == "market.py"} == {
        ("market.py", "write_bundle")}


def test_training_problem_has_no_optional_parts():
    """The training problem has one path: no ``_Problem`` field is
    annotated as optional, trainer.py tests no ``prob.`` attribute
    against None, and ``_objective`` has no defaulted parameter (its
    workspace is always given)."""
    tree = ast.parse((SRC / "trainer.py").read_text())
    defs = {n.name: n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    annotations = [ast.unparse(f.annotation) for f in defs["_Problem"].body
                   if isinstance(f, ast.AnnAssign)]
    assert annotations and [a for a in annotations if "None" in a or "Optional" in a] == []
    none_tests = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Compare)
                  and any(isinstance(op, (ast.Is, ast.IsNot)) for op in n.ops)
                  and any(isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name)
                          and e.value.id == "prob" for e in [n.left, *n.comparators])]
    assert none_tests == []
    args = defs["_objective"].args
    assert args.defaults == [] and all(d is None for d in args.kw_defaults)


def test_config_parsers_write_no_defaults():
    """No config parser (a ``from_dict``, ``errors.from_config``, or a CLI
    function in ``cli._load``'s ``parsers`` table) reads a key with
    ``.get(key, default)``: a key that a config leaves out takes its
    dataclass field's default, so each default is written once.  A module
    constant (``_JSON_KEY``, say) may be read with a default."""
    load = next(n for n in ast.walk(ast.parse((SRC / "cli.py").read_text()))
                if isinstance(n, ast.FunctionDef) and n.name == "_load")
    table = next(n.value for n in ast.walk(load) if isinstance(n, ast.Assign)
                 and getattr(n.targets[0], "id", None) == "parsers")
    cli_parsers = {v.id for v in table.values if isinstance(v, ast.Name)}
    parsers = [(path.name, fn) for path in sorted(SRC.glob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef) and (
                   fn.name in ("from_dict", "from_config")
                   or (path.name == "cli.py" and fn.name in cli_parsers))]
    assert {fn.name for _, fn in parsers} >= {"from_dict", "from_config", "_instruments"}
    defaults = [f"{module}:{call.lineno} {fn.name}" for module, fn in parsers
                for call in ast.walk(fn)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "get" and len(call.args) > 1
                and not getattr(call.func.value, "id", "").lstrip("_").isupper()]
    assert defaults == []


def test_no_unused_imports():
    """Every name a module imports is used in that module."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_no_unused_parameters():
    """Every parameter of every function and lambda (``self`` and ``cls``
    aside) is used in its body."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            used = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unused += [f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({p})"
                       for p in params if p not in used and p not in ("self", "cls")]
    assert unused == []


def _module_level_names():
    """The package's module-level names, as (file, statement index, name,
    is a function or class), and their users: name -> the (file, statement
    index) pairs whose statement mentions it."""
    defined, users = [], {}
    for path in sorted(SRC.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def:
                names = [stmt.name]
            else:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            defined += [(path.name, i, name, is_def) for name in names]
            for n in ast.walk(stmt):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    users.setdefault(getattr(n, "id", None) or n.attr, set()).add((path.name, i))
    return defined, users


def test_no_unused_private_names():
    """Every module-level private name (function, class or constant) is
    used somewhere in the package outside its own definition."""
    defined, users = _module_level_names()
    private = [(module, i, name) for module, i, name, _ in defined
               if name.startswith("_") and not name.startswith("__")]
    assert private
    unused = [f"{module} {name}" for module, i, name in private
              if not users.get(name, set()) - {(module, i)}]
    assert unused == []


# public functions that only tests call, each kept for the reason given
NO_CALLER_NEEDED = {
    "divergence": "A8 checks Q*'s u~-divergence against the objective; the planned run "
                  "record reports it",
    "bounded_reweight": "A2's bounded adjusted-mean-vol density; the planned held-out "
                        "verdict compares it with the exponential family",
    "objective_and_grad": "A5 checks the analytic gradient against finite differences",
}


def test_every_public_name_has_a_caller():
    """Every module-level public function or class is used in the package
    outside its own definition, exported in ``driftless.__all__``, or listed
    in NO_CALLER_NEEDED; test-only references live in tests/oracles.py.
    Each NO_CALLER_NEEDED entry must still be defined and uncalled."""
    defined, users = _module_level_names()
    public = [(module, i, name) for module, i, name, is_def in defined
              if is_def and not name.startswith("_")]
    assert public
    uncalled = [(module, name) for module, i, name in public
                if name not in driftless.__all__ and not users.get(name, set()) - {(module, i)}]
    assert [f"{module} {name}" for module, name in uncalled if name not in NO_CALLER_NEEDED] == []
    assert sorted(name for _, name in uncalled) == sorted(NO_CALLER_NEEDED)


def _defaulted_parameters(tree):
    """(name, parameter, position) of each defaulted parameter of each
    function in ``tree``: ``name`` is the class name for an ``__init__``,
    ``position`` the index among a call's positional arguments, None for a
    keyword-only parameter."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                if cls and pos and pos[0].arg in ("self", "cls"):
                    pos = pos[1:]
                name = cls if child.name == "__init__" else child.name
                first = len(pos) - len(a.defaults)
                out.extend((name, p.arg, i) for i, p in enumerate(pos[first:], first))
                out.extend((name, p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _sets(call, name, param, position):
    """True when ``call`` calls ``name`` and sets ``param``: by keyword, by
    position, or through a ``*args`` or ``**kwargs`` argument."""
    func = call.func
    if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != name:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    return (any(k.arg == param for k in call.keywords)
            or (position is not None and len(call.args) > position))


def test_every_default_is_set():
    """Every defaulted parameter of a package function is set by at least
    one call in the package or its tests; a default no caller varies is a
    constant."""
    params = [(path.name, *p) for path in sorted(SRC.glob("*.py"))
              for p in _defaulted_parameters(ast.parse(path.read_text()))]
    tests = pathlib.Path(__file__).parent
    calls = [n for path in sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py"))
             for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
    assert params
    unset = [f"{module} {name}({param})" for module, name, param, position in params
             if not any(_sets(c, name, param, position) for c in calls)]
    assert unset == []


# public functions and classes with a ``weights`` parameter that is not a
# vector of path weights, each with the reason
NOT_PATH_WEIGHTS = {
    "Mlp": "its weights are the policy network's layer matrices",
}


def _weights_takers():
    """Names of the public module-level functions with a ``weights``
    parameter and of the public classes with a ``weights`` field or
    ``__init__`` parameter."""
    names = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                params = [a.arg for a in node.args.args + node.args.kwonlyargs]
            elif isinstance(node, ast.ClassDef):
                params = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
                params += [a.arg for s in node.body if isinstance(s, ast.FunctionDef)
                           and s.name == "__init__" for a in s.args.args]
            else:
                continue
            if "weights" in params and not node.name.startswith("_"):
                names.append(node.name)
    return names


def test_every_weights_parameter_is_checked(tmp_path):
    """Every public function or class that takes path weights refuses
    negative, NaN, mean != 1 and wrong-length weights with InputError, and
    takes uniform ones.  A new weights-taking name that the sweep below does
    not call makes this test fail.  Functions given no path count have no
    wrong length; for them a two-dimensional array is the wrong shape."""
    import numpy as np

    from driftless.frictions import CostSpec
    from driftless.hedging import deep_hedge
    from driftless.market import check_weights, write_weights_csv
    from driftless.measure import DensityWeights, divergence, verify_drift
    from driftless.oce import Utility, closed_form_y, oce_sup, oce_value
    from driftless.trainer import TrainConfig, train
    from oracles import one_period_bundle

    bundle, rets = one_period_bundle(np.array([0.2, -0.1, 0.3]))
    spec, u = CostSpec(0.001), Utility("exponential", 1.0)
    amv = Utility("adjusted_mean_vol", 1.0)
    cfg = TrainConfig(epochs=1, seed=0, hidden=(2,))
    x = np.array([0.1, -0.2, 0.3])
    sweep = [  # (name, call with the weights, whether the call gives a path count)
        ("check_weights", lambda w: check_weights(w, 3), True),
        ("write_weights_csv", lambda w: write_weights_csv(tmp_path / "w.csv", w), False),
        ("DensityWeights", lambda w: DensityWeights(weights=w, mean_error=0.0), False),
        ("verify_drift", lambda w: verify_drift(bundle, rets, w, spec), True),
        ("divergence", lambda w: divergence(w, u), False),
        ("oce_value", lambda w: oce_value(x, w, u, 0.0), True),
        ("closed_form_y", lambda w: closed_form_y(u, x, w), True),
        ("oce_sup", lambda w: oce_sup(x, w, u), True),
        ("oce_sup", lambda w: oce_sup(x, w, amv), True),
        ("deep_hedge", lambda w: deep_hedge(bundle, rets, w, np.zeros(3), spec, u, cfg), True),
        ("train", lambda w: train(bundle, rets, spec, u, cfg, weights=w), True),
    ]
    swept = {name for name, _, _ in sweep}
    assert sorted(_weights_takers()) == sorted(swept | set(NOT_PATH_WEIGHTS))

    bad = {"negative": [2.5, -0.5, 1.0], "nan": [1.0, np.nan, 1.0], "mean_not_one": [5.0] * 3,
           "wrong_length": [1.0, 1.0], "two_dimensional": [[1.0], [1.0], [1.0]]}
    accepted = []
    for name, call, sized in sweep:
        call(np.ones(3))
        for case, w in bad.items():
            if case == "wrong_length" and not sized:
                continue
            try:
                call(np.array(w))
            except errors.InputError:
                continue
            accepted.append(f"{name} {case}")
    assert accepted == []
