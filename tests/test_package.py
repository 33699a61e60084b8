import ast
import importlib
import json
import pathlib
import re
import subprocess
import sys
import tokenize

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


def _tour() -> str:
    """The code block of the README's library quick tour."""
    return re.search(r"## Library quick tour\n+```python\n(.*?)```", README.read_text(),
                     re.S).group(1)


def _names(nodes):
    """The names read and attributes taken among `nodes`."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute))}


def _entry_reason(lines, lineno):
    """The comment of the assignment on line `lineno`: its own, or else the
    comment lines right above it."""
    above = lineno - 1
    while above > 0 and lines[above - 1].startswith("#"):
        above -= 1
    return lines[lineno - 1].partition("#")[2] or " ".join(lines[above:lineno - 1])


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

    def test_methods_have_a_caller_or_a_tour_line(self):
        # every non-dunder method (properties included) of a class in src/ is
        # called or read in src/ outside its own definition, or the README's
        # library quick tour shows it; a method that only tests call belongs
        # in the tests
        trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
        nodes = [node for tree in trees for node in ast.walk(tree)]
        tour = _tour()
        unused = []
        for tree in trees:
            for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
                for defn in cls.body:
                    if (isinstance(defn, ast.FunctionDef)
                            and not (defn.name.startswith("__") and defn.name.endswith("__"))):
                        own = {id(node) for node in ast.walk(defn)}
                        used = _names(node for node in nodes if id(node) not in own)
                        if defn.name not in used and not re.search(rf"\b{defn.name}\b", tour):
                            unused.append(f"{cls.name}.{defn.name}")
        assert unused == []

    def test_no_unit_clamp(self):
        # a threshold tol * max(x, 1.0) is absolute below unit scale, so it
        # moves a decision when the generators are rescaled: thresholds are
        # relative to the balanced generators (linalg.DilationAlgebra).
        # Each clamp that is left has a reason, and every entry here is used
        allowed = {
            ("linalg.py", "mat_exp"): "series stop: M / 2^s has norm <= 1/2, so exp of it is O(1)",
            ("sections.py", "section_batch"): "per-point cuts on |v| and |v*|, which scale "
                                              "with xi, not with the generators",
        }
        found = set()
        for path in sorted(SRC.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text())):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and (_names([node.func]) & {"max", "maximum"})
                            and any(isinstance(arg, ast.Constant) and arg.value == 1.0
                                    and type(arg.value) is float for arg in node.args)):
                        found.add((path.name, func.name))
        assert found == set(allowed)

    def test_one_place_for_cuts(self):
        # every threshold a decision compares with is an entry of linalg's
        # tolerance table, with its reason and, after "x", the scale it
        # multiplies: no e-notation number sits anywhere else in src/ except
        # these guards, which decide nothing, and no rank call outside linalg
        # is passed a literal tolerance
        guards = {
            ("linalg.py", "mat_exp"): "series stop: the terms left are below rounding of exp",
            ("wavelet.py", "smoothstep"): "floor that keeps 1/x finite where exp(-1/x) is 0",
        }
        rank_calls = {"numerical_rank", "rank_tol", "null_space", "orth_columns"}
        found, literal, table = set(), [], []
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text()
            tree = ast.parse(text)
            entries = {node.lineno for node in tree.body if path.name == "linalg.py"
                       and isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)}
            funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            lines = text.splitlines()
            with tokenize.open(path) as fh:
                for tok in tokenize.generate_tokens(fh.readline):
                    if tok.type != tokenize.NUMBER or not re.search(r"[eE]-", tok.string):
                        continue
                    line = tok.start[0]
                    if line in entries:
                        table.append((lines[line - 1], _entry_reason(lines, line)))
                        continue
                    owner = max((f for f in funcs if f.lineno <= line <= f.end_lineno),
                                key=lambda f: f.lineno, default=None)
                    found.add((path.name, owner.name if owner else "<module>"))
            for call in ast.walk(tree):
                if (path.name != "linalg.py" and isinstance(call, ast.Call)
                        and _names([call.func]) & rank_calls):
                    literal += [f"{path.name}:{call.lineno}"
                                for arg in [*call.args[1:], *(kw.value for kw in call.keywords)]
                                for node in ast.walk(arg)
                                if isinstance(node, ast.Constant)
                                and isinstance(node.value, (int, float))]
        assert found == set(guards)
        assert literal == []
        assert table and [entry for entry, reason in table
                          if not re.search(r"[ (]x \S", reason)] == []

    def test_only_the_sampled_routes_draw(self):
        # exact answers come from structure: only the strata census and the
        # quasi-section coverage test draw points (linalg.seeded_draws); the
        # wavelet route's orbits are open, so its coverage is certain
        callers = set()
        for path in sorted(SRC.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text())):
                if isinstance(func, ast.FunctionDef) and any(
                        isinstance(node, ast.Call) and _names([node.func]) == {"seeded_draws"}
                        for node in ast.walk(func)):
                    callers.add(f"{path.stem}.{func.name}")
        assert callers == {"orbits.stratify", "quasisection.quasi_section_verdict"}

    def test_one_reader_for_inputs(self):
        # every input key and flag is fetched and checked by groupspec.read
        # (and its _parse), by its row of INPUTS: elsewhere in cli.py and
        # groupspec.py no key is read (doc.get("..."), doc["..."] or
        # "..." in doc), no flag or work is compared with a bound, and no
        # message restates a rule
        from orbitscope.groupspec import INPUTS

        keys = {key.lstrip("-").replace("-", "_") for key in INPUTS}
        flags = {key.lstrip("-").replace("-", "_") for key in INPUTS if key[0] == "-"}
        order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        found = []
        for name in ("cli.py", "groupspec.py"):
            tree = ast.parse((SRC / name).read_text())
            reader = {id(node) for defn in tree.body if isinstance(defn, ast.FunctionDef)
                      and defn.name in ("read", "_parse") for node in ast.walk(defn)}
            reader |= {id(owner.body[0].value) for owner in ast.walk(tree)  # docstrings
                       if isinstance(owner, (ast.Module, ast.FunctionDef, ast.ClassDef))
                       and isinstance(owner.body[0], ast.Expr)}
            for node in ast.walk(tree):
                if id(node) in reader:
                    continue
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                    read = [node.slice]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "get"):
                    read = node.args[:1]
                elif isinstance(node, ast.Compare):
                    read = [node.left] * any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                    operands = [n for op in [node.left, *node.comparators] for n in ast.walk(op)]
                    if (any(isinstance(op, order) for op in node.ops)
                            and _names(operands) & (flags | {"_MAX_POINTS"})):
                        found.append(f"{name}:{node.lineno} compares a flag or work")
                elif isinstance(node, ast.Constant) and " must be " in str(node.value):
                    read = []
                    if name == "cli.py":
                        found.append(f"{name}:{node.lineno} restates a rule")
                else:
                    continue
                found += [f"{name}:{node.lineno} reads {arg.value!r}" for arg in read
                          if isinstance(arg, ast.Constant) and arg.value in keys]
        assert found == []

    def test_docs_name_the_input_table(self):
        # the cli docstring and the README's input table name exactly the
        # rows of groupspec.INPUTS, keys first, in the table's order
        from orbitscope.cli import __doc__ as doc
        from orbitscope.groupspec import INPUTS

        listed = re.search(r"per key of the input document\s*\(([^)]*)\)\s*and per\s+checked "
                           r"flag\s*\(([^)]*)\)", doc)
        assert re.findall(r'"(\w+)"|(--[\w-]+)', " ".join(listed.groups())) == [
            (key, "") if key[0] != "-" else ("", key) for key in INPUTS]
        section = README.read_text().split("### The input table")[1]
        table = section[section.index("| key or flag"):].split("\n\n")[0]
        rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", table, re.M)
        assert [(key, kind.strip()) for key, kind in rows] == [
            (key, row.kind) for key, row in INPUTS.items()]

    def test_one_scale_rule(self):
        # DilationAlgebra balances each generator by its own 2^e, once: no
        # other module takes a frexp exponent, and no function builds a
        # second algebra from another algebra's generators.  An algebra is
        # built only from outside input (groupspec), fixed matrices
        # (families, the golden table of `classify --table`) or span{A}
        # (normal_form)
        allowed = {("groupspec.py", "group_spec_from_dict"), ("cli.py", "_cmd_classify"),
                   ("sections.py", "normal_form")}
        frexp, built = set(), set()
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            if "frexp" in _names(ast.walk(tree)):
                frexp.add(path.name)
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef):
                    built |= {(path.name, func.name) for node in ast.walk(func)
                              if isinstance(node, ast.Call)
                              and _names([node.func]) == {"DilationAlgebra"}}
        assert frexp == {"linalg.py"}
        assert {site for site in built if site[0] != "families.py"} == allowed

    def test_one_root_structure(self):
        # the joint roots, their eigenspaces and each generator's nilpotent
        # part are measured once, in roots_decompose: an eigen-solver call
        # elsewhere has its reason here, and every entry is used
        allowed = {
            ("linalg.py", "roots_decompose"): "the generic combination's eigenvalues, "
                                              "which the joint roots are clustered from",
            ("classify.py", "classify_one_param"): "at d = 1 roots_decompose raises on "
                                                   "large ill-conditioned Jordan blocks, "
                                                   "while the signs of Re(lambda) stay readable",
        }
        found, defined = set(), set()
        for path in sorted(SRC.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text())):
                if isinstance(func, ast.FunctionDef):
                    defined.add(func.name)
                    if _names(ast.walk(func)) & {"eig", "eigvals"}:
                        found.add((path.name, func.name))
        assert found == set(allowed)
        assert "blocks_semisimple" not in defined

    def test_no_module_loads_numpy_random(self):
        # every sampled check draws from linalg.seeded_draws, the standard
        # library's random: no module imports numpy.random or reads np.random
        uses = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif (isinstance(node, ast.Attribute) and node.attr == "random"
                      and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                    names = ["numpy.random"]
                else:
                    continue
                uses += [f"{path.name}:{node.lineno}" for name in names
                         if name == "numpy.random" or name.startswith("numpy.random.")]
        assert uses == []

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
        tour = _tour()
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
            **{f"wavelet.py:l1_estimate({param})":
               "the CLI takes the lattice from the spec; criterion 8 and the "
               "convergence tests pass their own" for param in ("shape", "dx", "param_counts")},
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


class TestReadme:
    def test_quick_tour_runs(self):
        # the tour counts as a caller of the names it shows, so it must run
        exec(compile(_tour(), "README quick tour", "exec"), {})


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
