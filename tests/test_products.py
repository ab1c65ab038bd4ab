"""The library takes every product with the ndarray.dot method and the
history's step norm with np.vdot (see the gradbench package docstring).
These tests keep the @ operator, np.dot and the np.errstate block that the
step norm needed, each slower per call at the optimizer's sizes, from coming
back, and the testbed's gradients off numpy's *_like allocators."""

import ast
from pathlib import Path

import pytest

import gradbench

PACKAGE = Path(gradbench.__file__).resolve().parent


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _numpy_uses(tree, name):
    """Line numbers of each np.<name> or numpy.<name> in tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_products_are_taken_with_ndarray_dot(path):
    tree = _tree(path)
    matmuls = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.BinOp, ast.AugAssign))
               and isinstance(node.op, ast.MatMult)]
    assert matmuls == []
    assert _numpy_uses(tree, "dot") == []


def test_direction_history_enters_no_errstate():
    assert _numpy_uses(_tree(PACKAGE / "direction_history.py"), "errstate") == []


def test_testbed_allocates_without_the_like_wrappers():
    """The analytic gradients allocate with np.zeros(x.shape) and
    np.empty(x.shape).  np.zeros_like is a Python-level wrapper that took
    0.9 us at n = 25 against 0.2 us (2 vCPU, numpy 2.4), paid by each of the
    thousands of lone gradients of the hessian benchmark's set-up, and both
    *_like allocators give an F-ordered batch an F-ordered gradient."""
    tree = _tree(PACKAGE / "testbed.py")
    assert _numpy_uses(tree, "zeros_like") == []
    assert _numpy_uses(tree, "empty_like") == []
