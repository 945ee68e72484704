"""The package's public surface and what importing it loads."""

import ast
import glob
import os
import subprocess
import sys
from collections import Counter

import sparsedom
from sparsedom import czo, geometry, harness, rational, sparse, stepfn, weights

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


def test_step_functions_have_no_cell_array():
    # exact cell values are read through the integer form (``_numerators``)
    assert not hasattr(stepfn.StepFunction, "_cell_array")
