"""Checks on the code itself, not on what it computes.

``benchmark/spans.py`` wraps each (module, attribute) of its ``TRACED``
list when a traced benchmark run starts, so a function deleted or
renamed here would break traced runs while the rest of this suite still
passes.  The file is loaded read-only: no bytecode is written beside it.

Every public ``autodiff`` op has a use in the package outside
``verify``, so no op is kept only to be checked.  Every other public
function and class has a caller in the package or the benchmark, or is
traced by it, unless ``NO_CALLER_YET`` says why not.  Every field of
``TrainConfig`` and ``ArchConfig`` is set by keyword in some call in the
package or the benchmark, unless ``UNSET_FIELDS`` says why it stays, so
a setting nothing sets does not grow back.  ``dense``'s activation
selects no branch per element.
"""

import ast
import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

from anomix import autodiff as ad
from anomix import networks as nets
from anomix import training as tr

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "anomix").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "benchmark").glob("*.py"))
SPANS = ROOT / "benchmark" / "spans.py"
# verify weighs each op's output with ``mul`` to make its scalar probes.
PROBE_COMBINATORS = {"mul"}
# Public names with no caller in src/anomix or benchmark/, and why.
NO_CALLER_YET = {
    "run_all": "waits for the planned `verify --json` command",
}
# Config fields that no call in src/anomix or benchmark/ sets, and why.
UNSET_FIELDS = {
    "weights": "the planned loss ablation sets each weight to 0",
    "checkpoint_every": "a deployment setting: how many steps an abort may lose",
}


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TRACED
    missing = [f"{module.__name__}.{attr}" for module, attr in spans.TRACED
               if not callable(getattr(module, attr, None))]
    assert not missing, f"benchmark/spans.py traces missing functions: {missing}"


def test_every_autodiff_op_has_a_caller_outside_verify():
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
           and "Tensor" in str(inspect.signature(fn).return_annotation)}
    assert {"dense", "weighted_sum", "cast"} <= ops, ops
    used = set()
    for path in (ROOT / "src" / "anomix").glob("*.py"):
        if path.stem in ("autodiff", "verify"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ad":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                used.update(alias.name for alias in node.names)
    unused = sorted(ops - used - PROBE_COMBINATORS)
    assert not unused, f"autodiff ops with no caller outside verify: {unused}"


def test_every_public_name_has_a_caller(monkeypatch):
    public = {node.name: path.stem for path in PACKAGE for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert {"fit", "Model", "run_all"} <= public.keys()
    used = {attr for _, attr in load_spans(monkeypatch).TRACED}
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            # A definition's references to its own name are not callers.
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(name for name in names if name != own)
    unused = sorted(f"{public[name]}.{name}" for name in public.keys() - used - NO_CALLER_YET.keys())
    assert not unused, f"public names with no caller in src/anomix or benchmark/: {unused}"
    assert NO_CALLER_YET.keys() <= public.keys() - used, "NO_CALLER_YET lists a name that has a caller"


def test_every_config_field_is_set_by_a_caller():
    configs = (tr.TrainConfig, nets.ArchConfig)
    names = {cls.__name__ for cls in configs}
    set_by_keyword = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in names:
                set_by_keyword.update(kw.arg for kw in node.keywords if kw.arg)
    unset = {f.name for cls in configs for f in dataclasses.fields(cls)} - set_by_keyword
    nothing_sets = sorted(unset - UNSET_FIELDS.keys())
    assert not nothing_sets, f"config fields that no call in src/anomix or benchmark/ sets: {nothing_sets}"
    assert UNSET_FIELDS.keys() <= unset, "UNSET_FIELDS lists a field that a caller sets"


def test_dense_activation_has_no_masked_select():
    # A masked multiply (``where=``) or ``np.where`` over a random-sign
    # mask costs 8-10 ns per element against ~0.5 ns for a plain product
    # by a factor array: 0.63-0.81 ms against 0.04 ms on a float32
    # [1216 x 64] block (Xeon, numpy 2.4, one thread).
    for name in ("dense", "_leaky_factor"):
        source = inspect.getsource(getattr(ad, name))
        assert "where=" not in source and "np.where(" not in source, name
