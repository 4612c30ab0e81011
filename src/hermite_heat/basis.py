"""Septic Hermite shape functions and collocation point rules.

Each element carries eight degree-7 shape functions on the local coordinate
xi in [0, 1].  They interpolate value, slope, curvature and third derivative
at the two element ends, in the degree-of-freedom order

    (value-L, u'-L, u''-L, u'''-L, u'''-R, u''-R, value-R, u'-R).

Derivative shape functions carry powers of the element width h (h, h**2,
h**3 on the slope, curvature and third-derivative functions) so that the
coefficients multiplying them are x-derivatives at the element ends rather
than xi-derivatives.

Three polynomial families are provided: H (values), A = dH/dxi and
B = dA/dxi.  All are evaluated by Horner's scheme on fixed monomial
coefficient tables.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial.polynomial import polyval

__all__ = [
    "H_COEFFS",
    "A_COEFFS",
    "B_COEFFS",
    "H_POWERS",
    "CollocationRule",
    "BasisTable",
    "hermite_values",
    "hermite_first_derivs",
    "hermite_second_derivs",
    "legendre_rule",
    "chebyshev_rule",
    "RULES",
    "build_basis_table",
]

# Monomial coefficients (powers xi^0 .. xi^7), one row per shape function.
H_COEFFS = np.array([
    [1.0, 0.0, 0.0, 0.0, -35.0, 84.0, -70.0, 20.0],
    [0.0, 1.0, 0.0, 0.0, -20.0, 45.0, -36.0, 10.0],
    [0.0, 0.0, 0.5, 0.0, -5.0, 10.0, -7.5, 2.0],
    [0.0, 0.0, 0.0, 1 / 6, -2 / 3, 1.0, -2 / 3, 1 / 6],
    [0.0, 0.0, 0.0, 0.0, -1 / 6, 0.5, -0.5, 1 / 6],
    [0.0, 0.0, 0.0, 0.0, 2.5, -7.0, 6.5, -2.0],
    [0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0],
    [0.0, 0.0, 0.0, 0.0, -15.0, 39.0, -34.0, 10.0],
])

A_COEFFS = np.array([
    [0.0, 0.0, 0.0, -140.0, 420.0, -420.0, 140.0, 0.0],
    [1.0, 0.0, 0.0, -80.0, 225.0, -216.0, 70.0, 0.0],
    [0.0, 1.0, 0.0, -20.0, 50.0, -45.0, 14.0, 0.0],
    [0.0, 0.0, 0.5, -8 / 3, 5.0, -4.0, 7 / 6, 0.0],
    [0.0, 0.0, 0.0, -2 / 3, 2.5, -3.0, 7 / 6, 0.0],
    [0.0, 0.0, 0.0, 10.0, -35.0, 39.0, -14.0, 0.0],
    [0.0, 0.0, 0.0, 140.0, -420.0, 420.0, -140.0, 0.0],
    [0.0, 0.0, 0.0, -60.0, 195.0, -204.0, 70.0, 0.0],
])

# The xi^4 coefficient of row 2 is -1080 (the derivative of -216 xi^5).
B_COEFFS = np.array([
    [0.0, 0.0, -420.0, 1680.0, -2100.0, 840.0, 0.0, 0.0],
    [0.0, 0.0, -240.0, 900.0, -1080.0, 420.0, 0.0, 0.0],
    [1.0, 0.0, -60.0, 200.0, -225.0, 84.0, 0.0, 0.0],
    [0.0, 1.0, -8.0, 20.0, -20.0, 7.0, 0.0, 0.0],
    [0.0, 0.0, -2.0, 10.0, -15.0, 7.0, 0.0, 0.0],
    [0.0, 0.0, 30.0, -140.0, 195.0, -84.0, 0.0, 0.0],
    [0.0, 0.0, 420.0, -1680.0, 2100.0, -840.0, 0.0, 0.0],
    [0.0, 0.0, -180.0, 780.0, -1020.0, 420.0, 0.0, 0.0],
])

# Power of the element width h multiplying each shape function.
H_POWERS = np.array([0, 1, 2, 3, 3, 2, 0, 1])

H_COEFFS.setflags(write=False)
A_COEFFS.setflags(write=False)
B_COEFFS.setflags(write=False)
H_POWERS.setflags(write=False)


def _check_point(xi, h):
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"local coordinate xi must lie in [0, 1], got {xi}")
    if h <= 0.0:
        raise ValueError(f"element width h must be positive, got {h}")


def _eval_family(coeffs, xi, h):
    # polyval consumes coefficients along the first axis (Horner's scheme)
    return polyval(xi, coeffs.T) * h ** H_POWERS


def hermite_values(xi, h):
    """Values of the eight shape functions at local coordinate xi."""
    _check_point(xi, h)
    return _eval_family(H_COEFFS, xi, h)


def hermite_first_derivs(xi, h):
    """First xi-derivatives of the eight shape functions at xi."""
    _check_point(xi, h)
    return _eval_family(A_COEFFS, xi, h)


def hermite_second_derivs(xi, h):
    """Second xi-derivatives of the eight shape functions at xi."""
    _check_point(xi, h)
    return _eval_family(B_COEFFS, xi, h)


@dataclass(frozen=True)
class CollocationRule:
    """Six interior collocation abscissae on the reference element [0, 1].

    kind is 'legendre' or 'chebyshev'; the points are strictly increasing,
    lie in the open interval (0, 1) and are symmetric about 1/2.
    """

    kind: str
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.shape != (6,):
            raise ValueError("a collocation rule needs exactly 6 points")
        if not (np.all(np.diff(pts) > 0.0) and pts[0] > 0.0 and pts[-1] < 1.0):
            raise ValueError("collocation points must increase strictly inside (0, 1)")
        if np.max(np.abs(pts + pts[::-1] - 1.0)) > 1e-12:
            raise ValueError("collocation points must be symmetric about 1/2")


def legendre_rule():
    """Collocation points: roots of the degree-6 shifted Legendre polynomial.

    The standard Gauss-Legendre nodes on [-1, 1] are polished by Newton
    iteration on P6 and mapped to [0, 1] via (1 + x) / 2.
    """
    x = npleg.leggauss(6)[0]
    c = np.zeros(7)
    c[6] = 1.0
    dc = npleg.legder(c)
    for _ in range(2):
        x = x - npleg.legval(x, c) / npleg.legval(x, dc)
    return CollocationRule("legendre", (1.0 + x) / 2.0)


def chebyshev_rule():
    """Collocation points: degree-6 Chebyshev (first kind) roots on [0, 1]."""
    i = np.arange(1, 7)
    return CollocationRule("chebyshev", (1.0 - np.cos((2 * i - 1) * np.pi / 12.0)) / 2.0)


# Collocation rule constructors by CollocationRule.kind.
RULES = {"legendre": legendre_rule, "chebyshev": chebyshev_rule}


@dataclass(frozen=True)
class BasisTable:
    """Shape function values and second derivatives at the collocation points.

    Row i of H and B holds the eight function values (resp. second
    xi-derivatives) at collocation point i, for element width h.
    """

    h: float
    H: np.ndarray
    B: np.ndarray


def build_basis_table(rule, h):
    """Tabulate H and B at the rule's points for element width h."""
    H = np.stack([hermite_values(xi, h) for xi in rule.points])
    B = np.stack([hermite_second_derivs(xi, h) for xi in rule.points])
    for arr in (H, B):
        arr.setflags(write=False)
    return BasisTable(h=h, H=H, B=B)
