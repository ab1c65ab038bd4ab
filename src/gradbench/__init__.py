"""Finite-difference gradients and Hessians in bases adapted from the
history of descent directions, with a BFGS harness and benchmark tooling.

Every matrix and vector product is taken with the ndarray.dot method, not
the @ operator or np.dot: at the sizes the optimizer works at, a product
costs numpy's call dispatch more than arithmetic, and .dot calls the same
BLAS routine for the same bits with less of it.  A product that may
overflow is np.vdot, which gives those bits too and checks no
floating-point flags, so an overflow is inf with no warning: the history's
step norm, and the optimizer's slopes d.g (its two descent tests and the
line search's slope at the start).
"""

from .direction_history import DirectionHistory, mgs_orthonormalize
from .finite_difference import (
    BasisMatrix,
    Estimate,
    FdScheme,
    IllConditionedBasisError,
    ObjectiveFn,
    directional_derivative,
    gradient_in_basis,
    hessian_in_basis,
    vanilla_gradient,
)
from .optimizer import (
    BfgsOptions,
    LineSearchError,
    OptimResult,
    bfgs_minimize,
    line_search,
)
from .smart_estimator import SmartEstimator, wrap
from .testbed import FUNCTION_NAMES, TestFunction, get_test_function, grad_mse

__version__ = "0.1.0"

__all__ = [
    "BasisMatrix",
    "BfgsOptions",
    "DirectionHistory",
    "Estimate",
    "FdScheme",
    "FUNCTION_NAMES",
    "IllConditionedBasisError",
    "LineSearchError",
    "ObjectiveFn",
    "OptimResult",
    "SmartEstimator",
    "TestFunction",
    "bfgs_minimize",
    "directional_derivative",
    "get_test_function",
    "grad_mse",
    "gradient_in_basis",
    "hessian_in_basis",
    "line_search",
    "mgs_orthonormalize",
    "vanilla_gradient",
    "wrap",
]
