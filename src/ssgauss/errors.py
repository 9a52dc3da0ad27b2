"""Exception types shared across the package.

The command line front end maps these onto its exit-code contract:
domain/usage problems exit 2, applicability-gate violations exit 3,
numerical failures exit 4.
"""

import numbers


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


def require_integers(**values) -> None:
    """DomainError naming the first of values that is not an integer: a
    count or seed given as 2.5 would otherwise be truncated or leak a
    TypeError.  numpy integers pass."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")


class SingularityError(DomainError):
    """The requested quantity diverges at the evaluation point."""


class GridError(DomainError):
    """Time index falls outside the sampled grid."""


class GateError(RuntimeError):
    """Violation of the applicability condition alpha < 2 - 1/d.

    Outside this range the limit-variance series may diverge and the
    normal limit is not guaranteed, so dependent computations refuse
    to run.
    """


class NumericalError(RuntimeError):
    """A computation could not meet its accuracy or stability contract."""
