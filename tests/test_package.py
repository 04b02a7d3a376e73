"""Package metadata, the exported names, and a scan for dead code."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import voicesep

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = pathlib.Path(voicesep.__file__).parent


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        meta = tomllib.load(f)
    assert voicesep.__version__ == meta["project"]["version"]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        meta = tomllib.load(f)
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group()
             for dep in meta["project"]["dependencies"]]
    assert names == ["numpy"]


# One training step and one cascade evaluation in a fresh interpreter,
# then the names of any scipy modules that got imported on the way.
TRAIN_AND_EVALUATE = """
import sys
import numpy as np
import voicesep as vs
rng = np.random.default_rng(0)
a, b = rng.standard_normal(800), rng.standard_normal(800)
entry = vs.ManifestEntry(mixture=a + b, sources=[a, b],
                         speaker_ids=["x", "y"], gains=[1.0, 1.0])
models = {c: vs.init_params(vs.ModelConfig(
    n_filters=8, hidden=8, num_blocks=2, kernel_len=4, num_speakers=c,
    chunk_len=6), seed=0) for c in (2, 3)}
vs.train(models[2], None, [entry],
         vs.TrainConfig(epochs=1, segment_s=0.1, idloss=False))
vs.evaluate([entry], None, models=models, threshold=-40.0)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_training_and_evaluation_import_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PKG.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", TRAIN_AND_EVALUATE],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_all_is_sorted_unique_and_what_init_imports():
    """`__all__` exports exactly what `__init__` imports, and nothing
    twice."""
    names = voicesep.__all__
    assert names == sorted(set(names))
    tree = ast.parse((PKG / "__init__.py").read_text())
    imported = {alias.asname or alias.name for stmt in tree.body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    assert set(names) == imported


def referenced_names(node, own=frozenset()):
    """Every Name, Attribute and import alias under `node`, except the
    references a function, class or method makes to its own name, and
    attributes of numpy (`np.log10` reaches numpy, not a package
    function that shares its name)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = own | {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        numpy_attr = (isinstance(node.value, ast.Name)
                      and node.value.id in ("np", "numpy"))
        name = None if numpy_attr else node.attr
    elif isinstance(node, ast.alias):
        name = node.asname or node.name
    else:
        name = None
    if name is not None and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from referenced_names(child, own)


def definitions(tree, module):
    """(qualified name, name) of every module-level function and class,
    and every method and property of a module-level class, dunder
    methods aside (the interpreter calls those)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{stmt.name}", stmt.name
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{module}.{stmt.name}.{item.name}", item.name


# Public entry points that nothing in the package or the benchmark
# harness reaches, each with the reason it stays.
UNREACHED_ENTRY_POINTS = {
    "autodiff.grad_check_many": "the float64 gradient check that "
                                "verifies every op's backward",
    "evalkit.ibm_oracle": "the paper's ideal binary mask baseline",
    "evalkit.irm_oracle": "the paper's ideal ratio mask baseline",
}


def test_every_definition_has_a_caller():
    """A function, class, method or property of the package that nothing
    in the package's modules or the benchmark harness refers to is dead
    code, unless it is one of UNREACHED_ENTRY_POINTS. Exporting a name
    (`__init__`'s imports and `__all__`) does not count as a call. The
    scan matches names only, so it misses dead code that shares its name
    with a live reference (a method `validate` beside a called
    `validate`)."""
    used = set()
    for path in [*PKG.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        if path != PKG / "__init__.py":
            used.update(referenced_names(ast.parse(path.read_text())))
    dead = [qual for path in sorted(PKG.glob("*.py"))
            for qual, name in definitions(ast.parse(path.read_text()),
                                          path.stem)
            if name not in used]
    assert sorted(dead) == sorted(UNREACHED_ENTRY_POINTS)


def test_every_module_level_import_is_used():
    """A name a package module imports at its top level that nothing in
    the module refers to is a dead import. `__init__` is exempt (its
    imports are the exports) and so is `from __future__`."""
    unused = []
    for path in sorted(PKG.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import) or (
                    isinstance(stmt, ast.ImportFrom)
                    and stmt.module != "__future__"):
                unused += [f"{path.stem}: {bound}" for bound in (
                    alias.asname or alias.name.partition(".")[0]
                    for alias in stmt.names) if bound not in used]
    assert unused == []
