"""The self-verification suite passes at its fixed tolerances, and its
one list of gradient cases covers every op."""

import inspect

import numpy as np

from anomix import autodiff as ad
from anomix import verify


def test_run_all_passes():
    report = verify.run_all()
    assert report.ok, report.render()


def test_every_tensor_op_has_a_gradient_case():
    ops = [
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
        and inspect.signature(fn).return_annotation in ("Tensor", ad.Tensor)
    ]
    assert "dense" in ops and "weighted_sum" in ops, ops
    cases = [name for name, *_ in verify.gradient_cases(np.random.default_rng(0))]
    missing = [op for op in ops if not any(c == f"op {op}" or c.startswith(f"op {op} ") for c in cases)]
    assert not missing, f"ops without a gradient case: {missing}"
    dense = {f"op dense {act} d/d{t}" for act in ad.ACTIVATIONS for t in "xwb"}
    assert dense <= set(cases), sorted(dense - set(cases))
