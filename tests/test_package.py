import ast
import importlib
import json
import pathlib
import re
import subprocess
import sys

import pytest

import orbitscope


class TestNamespace:
    def test_public_names_are_the_submodules_objects(self):
        for name in orbitscope.__all__:
            if name == "__version__":
                continue
            value = getattr(orbitscope, name)
            assert value.__module__.startswith("orbitscope."), name
            module = importlib.import_module(value.__module__)
            assert getattr(module, name) is value, name

    def test_dir_lists_every_public_name(self):
        assert set(orbitscope.__all__) <= set(dir(orbitscope))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            orbitscope.no_such_name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from orbitscope import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(orbitscope.__all__)
        assert namespace["cwt"] is orbitscope.wavelet.cwt

    def test_fresh_import_is_lazy(self):
        # a fresh interpreter: the package alone loads no submodule, and names
        # and submodule attributes import what they need on first use
        probe = (
            "import json, sys\n"
            "import orbitscope\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('orbitscope.'))\n"
            "bare = loaded()\n"
            "from orbitscope import families, orbits\n"
            "same = orbitscope.wavelet.cwt is orbitscope.cwt\n"
            "print(json.dumps({'bare': bare, 'same': same, 'after': loaded(),\n"
            "                  'families': families.__name__, 'orbits': orbits.__name__}))\n"
        )
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        got = json.loads(res.stdout)
        assert got["bare"] == []
        assert got["same"]
        assert {"orbitscope.families", "orbitscope.orbits",
                "orbitscope.wavelet"} <= set(got["after"])
        assert (got["families"], got["orbits"]) == ("orbitscope.families", "orbitscope.orbits")



SRC = pathlib.Path(orbitscope.__file__).parent
README = SRC.parents[1] / "README.md"
ERROR_BASES = {"OrbitscopeError", "InputError", "DomainError"}


def _names(nodes):
    """The names read and attributes taken among `nodes`."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute))}


class TestNoDeadCode:
    def test_private_defs_have_a_caller_and_errors_are_raised(self):
        # every module-level def or class outside the export table (private
        # or not) is used in src/ outside its own definition; a helper that
        # only tests call belongs in the tests
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
        nodes = [node for tree in trees.values() for node in ast.walk(tree)]
        exported = {f"{module}.py:{name}" for name, module in orbitscope._EXPORTS.items()}
        unused = []
        for module, tree in trees.items():
            for defn in tree.body:
                if (isinstance(defn, (ast.FunctionDef, ast.ClassDef))
                        and not defn.name.endswith("__")
                        and f"{module}:{defn.name}" not in exported):
                    own = {id(node) for node in ast.walk(defn)}
                    if defn.name not in _names(n for n in nodes if id(n) not in own):
                        unused.append(f"{module}:{defn.name}")
        assert unused == []
        # every leaf error class is raised, or is the category of a warnings.warn
        signalled = set()
        for node in nodes:
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                signalled |= _names(ast.walk(exc))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "warn"):
                for arg in [*node.args[1:], *(kw.value for kw in node.keywords)]:
                    signalled |= _names(ast.walk(arg))
        leaves = {defn.name for defn in trees["errors.py"].body
                  if isinstance(defn, ast.ClassDef)} - ERROR_BASES
        assert sorted(leaves - signalled) == []

    def test_random_generators_are_seeded_by_a_name(self):
        # every default_rng(...) and Random(...) in src/ is seeded by a
        # parameter of an enclosing function or by a named module constant,
        # never by a literal or by nothing: no fixed draw hides inside
        # structure code
        unnamed = []
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                         for target in node.targets
                         if isinstance(target, ast.Name) and target.id.isupper()}
            unnamed += [f"{path.name}:{line}" for line in _unnamed_seeds(tree, constants)]
        assert unnamed == []

    def test_public_names_have_a_caller_or_a_tour_line(self):
        # a public name is used in src/ outside its own definition and the
        # export table, or the README's library quick tour shows it
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
                 if path.name != "__init__.py"}
        readme = README.read_text()
        tour = re.search(r"## Library quick tour\n+```python\n(.*?)```", readme, re.S).group(1)
        unused = []
        for name, module in orbitscope._EXPORTS.items():
            defn = next(node for node in trees[f"{module}.py"].body
                        if getattr(node, "name", None) == name)
            own = {id(node) for node in ast.walk(defn)}
            used = _names(node for tree in trees.values() for node in ast.walk(tree)
                          if id(node) not in own)
            if name not in used and not re.search(rf"\b{name}\b", tour):
                unused.append(f"{module}:{name}")
        assert unused == []

    def test_defaulted_parameters_are_set_in_src(self):
        # a parameter with a default that no call in src/ passes, by position
        # or by keyword, is a knob only tests turn; calls are matched by the
        # function's name, and a class name stands for its __init__
        allowed = {
            "cli.py:main(argv)": "the console script passes no argv; tests and "
                                 "the benchmark launcher pass theirs",
            "quasisection.py:quasi_section_verdict(n_samples)":
                "perfbench/launcher.py binds it by name to count the coverage draws",
        }
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
                 if path.name != "families.py"}  # families: the paper's parameterized examples
        calls = [node for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.Call)]
        unset = []
        for module, tree in trees.items():
            for owner in ast.walk(tree):
                if not isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                    continue
                for defn in owner.body:
                    if not isinstance(defn, ast.FunctionDef):
                        continue
                    method = isinstance(owner, ast.ClassDef)
                    name = owner.name if method and defn.name == "__init__" else defn.name
                    args = defn.args
                    positional = [a.arg for a in args.posonlyargs + args.args]
                    if method:
                        positional = positional[1:]  # self
                    defaulted = positional[len(positional) - len(args.defaults):] + [
                        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None]
                    for param in defaulted:
                        index = positional.index(param) if param in positional else None
                        if not any(_callee(call) == name and _passes(call, param, index)
                                   for call in calls):
                            unset.append(f"{module}:{name}({param})")
        assert sorted(set(unset)) == sorted(allowed)

    def test_parameters_are_read(self):
        # every parameter of a def or lambda in src/ is read in its body; the
        # CLI handlers share one (args, doc, alg) signature, so a handler may
        # leave one of those three unread
        handler = ["args", "doc", "alg"]
        unread = []
        for path in sorted(SRC.glob("*.py")):
            for defn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(defn, (ast.FunctionDef, ast.Lambda)):
                    continue
                args = defn.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                          + [args.vararg, args.kwarg] if a is not None]
                if (path.name == "cli.py" and defn.name.startswith("_cmd_")
                        and params == handler):
                    continue
                body = defn.body if isinstance(defn, ast.FunctionDef) else [defn.body]
                read = {node.id for stmt in body for node in ast.walk(stmt)
                        if isinstance(node, ast.Name)}
                name = getattr(defn, "name", "<lambda>")
                unread += [f"{path.name}:{name}({p})" for p in params
                           if p not in read and p != "self"]
        assert unread == []


class TestImportOrder:
    # the static half of test_cli.py::TestImports' thread probes, which need
    # /proc: OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy first loads,
    # and `python -m orbitscope.cli` imports the package before cli.py runs

    def test_package_imports_only_the_standard_library(self):
        tree = ast.parse((SRC / "__init__.py").read_text())
        imported = _module_level_imports(tree)
        foreign = [name for name in imported
                   if name.split(".")[0] not in sys.stdlib_module_names]
        assert imported and foreign == []

    def test_cli_sets_the_blas_default_before_numpy_loads(self):
        body = ast.parse((SRC / "cli.py").read_text()).body
        default = [i for i, stmt in enumerate(body) if ast.unparse(stmt)
                   == "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"]
        # numpy itself, or a package module, every one of which but errors
        # imports numpy
        loads = [i for i, stmt in enumerate(body) if isinstance(stmt, (ast.Import, ast.ImportFrom))
                 and any(name == "numpy" or name.startswith((".", "numpy."))
                         for name in _module_level_imports(stmt))]
        assert len(default) == 1 and loads
        assert default[0] < min(loads)


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passes(call, param, index):
    """Whether `call` passes `param`: by keyword, through **kwargs or *args,
    or by position `index` (not counting self)."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def _unnamed_seeds(node, names):
    """Lines of the default_rng and Random calls under `node` whose one
    argument is not among `names` or the parameters of an enclosing def or
    lambda."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        args = node.args
        names = names | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    lines = []
    if isinstance(node, ast.Call) and _callee(node) in ("default_rng", "Random"):
        seeds = [*node.args, *(kw.value for kw in node.keywords)]
        if not (len(seeds) == 1 and isinstance(seeds[0], ast.Name) and seeds[0].id in names):
            lines.append(node.lineno)
    for child in ast.iter_child_nodes(node):
        lines += _unnamed_seeds(child, names)
    return lines


def _module_level_imports(node):
    """The modules that `node` imports when it runs, outside function bodies;
    a relative import is spelled with its leading dots."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return []
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return [name for child in ast.iter_child_nodes(node)
            for name in _module_level_imports(child)]
