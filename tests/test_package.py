"""The package's public surface and what importing it loads."""

import ast
import glob
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields

import sparsedom
from sparsedom import cli, czo, geometry, harness, rational, sparse, stepfn, \
    weights

MODULES = (rational, geometry, stepfn, sparse, czo, weights, harness)


def test_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(sparsedom.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sparsedom, name) is getattr(module, name)


def test_import_does_not_load_scipy():
    # scipy serves only criterion 8's reference quadrature
    src = os.path.dirname(os.path.dirname(sparsedom.__file__))
    code = ("import sys; import sparsedom; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_one_definition_per_name():
    # a helper lives in one module; the others import it
    src = os.path.dirname(sparsedom.__file__)
    names = Counter()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        names.update({node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))})
    assert [name for name, count in names.items() if count > 1] == []


def test_only_stepfn_builds_shared_fractions():
    # the other modules hand on a kernel's integer form (``_from_ints``)
    src = os.path.dirname(sparsedom.__file__)
    importers = set()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        if any(isinstance(node, ast.ImportFrom)
               and "_shared_fractions" in {a.name for a in node.names}
               for node in ast.walk(tree)):
            importers.add(os.path.basename(path))
    assert importers == set()


def test_only_abs_table_reads_the_int64_bound():
    # the dtype of the |f| table is the package's one int64-or-object
    # choice: a kernel reads ``StepFunction._abs_table`` and keeps its dtype
    readers = []

    def visit(node, module: str, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        reads = (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 and node.id == "_INT64_BITS") \
            or (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr == "_INT64_BITS") \
            or (isinstance(node, ast.ImportFrom)
                and "_INT64_BITS" in {a.name for a in node.names})
        if reads:
            readers.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path, tree in _package_sources():
        visit(tree, os.path.basename(path), "")
    assert readers == [("stepfn.py", "StepFunction._abs_table")]


def test_step_functions_have_no_cell_array():
    # exact cell values are read through the integer form (``_num``)
    assert not hasattr(stepfn.StepFunction, "_cell_array")


def _sources():
    """(path, tree) for every module of the package and of the tests."""
    src = os.path.dirname(sparsedom.__file__)
    tests = os.path.dirname(os.path.abspath(__file__))
    for path in sorted(glob.glob(os.path.join(src, "*.py"))
                       + glob.glob(os.path.join(tests, "*.py"))):
        with open(path) as fh:
            yield path, ast.parse(fh.read(), path)


def _package_sources():
    src = os.path.dirname(sparsedom.__file__)
    return [(path, tree) for path, tree in _sources()
            if os.path.dirname(path) == src]


def _names_read(node, attributes=False) -> set:
    """Every name that ``node`` reads (``ast.Load``: not an assignment
    target or a dataclass field), quoted annotations included, and with
    ``attributes`` every attribute read too."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif attributes and isinstance(sub, ast.Attribute) \
                and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        note = getattr(sub, "returns", None) or getattr(sub, "annotation", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            out |= _names_read(ast.parse(note.value, mode="eval"), attributes)
    return out


def test_every_import_is_used():
    unused = []
    for path, tree in _sources():
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in read:
                        unused.append(f"{os.path.basename(path)}: {name}")
    assert unused == []


# Paper objects that tests check against their lemmas but no criterion,
# CLI path or other export calls yet.
UNCALLED_PAPER_OBJECTS = {
    # the amalgam A_{m,α} of the shifted-grid split: the adjoint pairing
    # with amalgam_adjoint and T_{S,m} ≤ 6ⁿ·Σ_α A_{m,α}
    "amalgam",
    # T_{S,m}, the dilated sparse operator of the same majorization
    "shifted_operator",
    # the decreasing rearrangement f*, in ω_λ(f;Q) ≤ (f−m)*(λ|Q|)
    "rearrangement",
    # the amalgam pair as a cell operator, for its weighted norm
    "amalgam_pair_operator",
    # the median m_f(Q); the tests check the upper medians of
    # _dyadic_blocks (the decomposition's base median) against it
    "median",
}


def test_every_export_is_used_in_the_package():
    # a name that only tests reach is not part of the toolkit; an attribute
    # of the same name (``DominationReport.median``) is not a use
    read_outside = set()
    for _, tree in _package_sources():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            read_outside |= _names_read(stmt) - {own}
    unread = {name for module in MODULES for name in module.__all__} - read_outside
    assert sorted(unread - UNCALLED_PAPER_OBJECTS) == []
    assert UNCALLED_PAPER_OBJECTS <= unread


def test_only_run_criterion_builds_a_verdict():
    # criteria return (measured, witness); the registry id names the verdict
    builders = []
    for path, tree in _package_sources():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and "Verdict" in _names_read(
                        node.func, attributes=True):
                    builders.append((os.path.basename(path),
                                     getattr(stmt, "name", None)))
    assert builders == [("harness.py", "run_criterion")]


def test_every_dataclass_field_is_read():
    fields_of, read = {}, set()
    for _, tree in _package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "dataclass" in {
                    d.id for d in node.decorator_list if isinstance(d, ast.Name)}:
                fields_of[node.name] = [stmt.target.id for stmt in node.body
                                        if isinstance(stmt, ast.AnnAssign)]
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert fields_of
    unread = ["%s.%s" % (cls, name) for cls, names in fields_of.items()
              for name in names if name not in read]
    assert unread == []


def test_every_config_field_is_a_cli_key():
    # flags and --config lines reach ExperimentConfig through one table
    names = {f.name for f in fields(harness.ExperimentConfig)}
    assert names <= cli._KEYS.keys()


def _config_reads(fn, functions, methods) -> set:
    """The ``cfg.<name>`` loads in ``fn``, nested functions included: a
    config method counts as the fields it reads (``cfg.mesh()`` as dim and
    level), and a module function called with ``cfg`` as its reads."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Name) and node.value.id == "cfg":
            out |= methods.get(node.attr, {node.attr})
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in functions \
                and "cfg" in {a.id for a in node.args if isinstance(a, ast.Name)}:
            out |= _config_reads(functions[node.func.id], functions, methods)
    return out


def test_each_criterion_declares_the_config_keys_it_reads():
    with open(harness.__file__) as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    config, = [node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "ExperimentConfig"]
    methods = {m.name: {a.attr for a in ast.walk(m) if isinstance(a, ast.Attribute)
                        and isinstance(a.ctx, ast.Load)
                        and isinstance(a.value, ast.Name) and a.value.id == "self"}
               for m in config.body if isinstance(m, ast.FunctionDef)}
    assert methods["mesh"] == {"dim", "level"}
    names = {f.name for f in fields(harness.ExperimentConfig)}
    for cid, (fn, dims, reads, _) in harness._REGISTRY.items():
        derived = _config_reads(functions[fn.__name__], functions, methods)
        if dims != (1, 2):  # run_criterion's dimension check reads dim
            derived.add("dim")
        assert (cid, derived & names) == (cid, set(reads))
