"""Gradient and Hessian estimation in a basis adapted to recent movement.

A SmartEstimator watches the sequence of points it is asked to
differentiate at, folds each displacement into a DirectionHistory, and
takes finite differences along the resulting orthonormal directions before
mapping the estimate back to canonical coordinates.  Until the first
displacement is seen the basis is the identity, so the very first estimate
coincides exactly with the canonical-basis one.

A SmartEstimator refuses, with ValueError, a scheme that is not an FdScheme
and an objective that is not an ObjectiveFn when it is built, and checks
each query point as the finite_difference entries do, before it touches
the history.
"""

from .direction_history import DirectionHistory
from .finite_difference import (
    FdScheme, _check_point, _check_scheme, _gradient_estimate, _objective, hessian_in_basis,
)


class SmartEstimator:
    """Stateful derivative estimator for a single optimization run.

    Calls must be externally serialized; independent estimators may run in
    parallel.
    """

    def __init__(self, objective, scheme=FdScheme()):
        self.objective = objective
        self.scheme = _check_scheme(scheme)
        self.history = DirectionHistory(_objective(objective).dim)
        self.last_x = None

    def smart_gradient(self, x):
        """Gradient estimate at x in the current history basis.

        The displacement from the previous query point is folded into the
        history first, so the estimate at the new iterate already uses the
        step that led there.  A repeated query at the same point gives a
        zero displacement (-0.0 entries included), which the history's
        zero-step rule ignores, so the basis is left alone.  x is checked
        once, before it touches the history.
        """
        x = _check_point(self.objective, x, self.scheme)
        if self.last_x is not None:
            self.history.update(x - self.last_x)
        estimate = _gradient_estimate(self.objective, x, self.history.basis, self.scheme)
        self.last_x = x.copy()
        return estimate

    def smart_hessian(self, x):
        """Hessian estimate at x in the current history basis.

        Curvature queries are not descent steps, so the history is left
        untouched: a Hessian at the mode is taken along the directions the
        optimizer actually travelled.
        """
        return hessian_in_basis(self.objective, x, self.history.basis, self.scheme)


def wrap(objective, scheme=FdScheme()):
    """Turn an objective into a stateful gradient callback for optimizers.

    The returned callable maps x to the estimated gradient values.
    Successive calls at distinct points feed the displacement history, so
    the estimates adapt as the optimizer walks.  The underlying
    SmartEstimator is exposed as the callable's `estimator` attribute.
    """
    estimator = SmartEstimator(objective, scheme)

    def smart_grad(x):
        return estimator.smart_gradient(x).values

    smart_grad.estimator = estimator
    return smart_grad
