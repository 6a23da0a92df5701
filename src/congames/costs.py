"""Polynomial edge cost functions with certified slope and envelope bounds.

An edge cost is c(y) = sum_j coef[j] * y**(j+1), i.e. a polynomial with no
constant term and nonnegative coefficients.  That restriction makes every
bound we need exact: the derivative is minimized at 0, the second derivative
is maximized at 1, and the potential contribution has a closed-form
antiderivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CostValidationError(ValueError):
    """Raised when a cost function violates a required condition."""


# Slack for the c(1) <= 1 check only; coefficients themselves must be >= 0 exactly.
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class PolynomialCost:
    """One edge's cost c(y) = sum_j coefficients[j-1] * y**j, j >= 1.  Construction
    raises CostValidationError on any cost outside the class the bounds below certify."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coefs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coefs)
        _check(len(coefs) >= 1, "cost has no coefficients")
        _check(all(np.isfinite(c) for c in coefs), "coefficient is not finite")
        _check(all(c >= 0.0 for c in coefs), "coefficient is negative")
        _check(coefs[0] > 0.0, "c'(0) = 0 violates c' >= A > 0 (linear coefficient must be positive)")
        total = _left_sum(coefs)
        _check(total <= 1.0 + _UNIT_TOL, f"c(1) = {total} exceeds 1")

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @property
    def derivative_lower(self) -> float:
        """A = min c' on [0,1].  c'' >= 0, so the minimum sits at y = 0."""
        return self.coefficients[0]

    @property
    def second_derivative_upper(self) -> float:
        """B = max c'' on [0,1], attained at y = 1 for nonnegative coefficients."""
        return _left_sum(j * (j - 1) * c for j, c in self._terms())

    @property
    def envelope_lower(self) -> float:
        """Largest a with a*y <= c(y) on [0,1]; equals A since c(y)/y is nondecreasing."""
        return self.derivative_lower

    @property
    def envelope_upper(self) -> float:
        """Tightest b with both c(y) <= b*y and c'(y) <= b on [0,1].

        Both constraints are needed downstream (the envelope for the value
        bounds, the slope for the curvature and equilibrium-gap bounds), and
        c'(1) = sum_j j*coef_j satisfies both.  It never exceeds the generic
        B + 1 bound because c'(1) <= coef_1 + B <= 1 + B.
        """
        return _left_sum(j * c for j, c in self._terms())

    def _terms(self):
        return ((j + 1, c) for j, c in enumerate(self.coefficients))


def horner(rows, y, out=None) -> np.ndarray:
    """sum_j rows[j] * y**j, from the leading coefficient down, into out if given.

    rows holds one contiguous (m,) coefficient array per power, as
    `power_rows` builds them; y broadcasts against the rows (edge loads
    (..., m)).  Each step is one multiply and one add; a single row is
    returned as it is.
    """
    acc = rows[-1]
    for row in rows[-2::-1]:
        acc = np.multiply(acc, y, out=out)
        np.add(acc, row, out=acc)
        out = acc
    return acc


def power_rows(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """The columns of an (m, P) coefficient table as P contiguous (m,) rows, the
    power-major layout of `horner`."""
    return tuple(np.ascontiguousarray(table.T))


def slope_table(table: np.ndarray) -> np.ndarray:
    """Coefficients of c'(y) from those of c(y)/y: (j + 1) * table[..., j] for y**j."""
    return np.arange(1, table.shape[-1] + 1) * table


def primitive_table(table: np.ndarray) -> np.ndarray:
    """Coefficients of F(y)/y**2 from those of c(y)/y: table[..., j] / (j + 2) for y**j."""
    return table / np.arange(2, table.shape[-1] + 2)


def _left_sum(values) -> float:
    """The float total of values added left to right, as sum() did before CPython
    3.12 compensated it: the bounds keep their bits on every Python."""
    total = 0.0
    for v in values:
        total += v
    return total


def _check(cond: bool, reason: str) -> None:
    if not cond:
        raise CostValidationError(reason)

