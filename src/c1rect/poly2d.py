"""Bivariate polynomial sets as coefficient stacks, and point-derivative
functionals.

Polynomials live on the reference square [0,1]^2.  A set of N polynomials of
bidegree at most (kx, ky) is one float array of shape (N, kx+1, ky+1), with
``p_n(x, y) = sum_ij c[n, i, j] u^i v^j`` in the normalized coordinates
``u = 2x - 1, v = 2y - 1``; a single polynomial is one (kx+1, ky+1) slice.
Degree-8 nodal bases have normalized coefficients of moderate size (~1e3),
whereas their plain ``x^i y^j`` coefficients reach ~1e9 and cannot be
evaluated to the accuracy the element certificates demand; the normalized
carrier keeps every evaluation within a few ulps.  Plain monomials enter
through :func:`monomials`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, perm

import numpy as np
import numpy.polynomial.polynomial as npoly
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]


def is_integer(x) -> bool:
    """An int or a numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _shift_to_normalized(n: int) -> FloatArray:
    """Matrix S with x^i = sum_m S[m, i] u^m for u = 2x - 1."""
    S = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for m in range(i + 1):
            S[m, i] = comb(i, m) * 0.5**i
    return S


def monomials(exponents) -> FloatArray:
    """Stack of the plain monomials x^i y^j for (i, j) in ``exponents``,
    padded to bidegree (k, k) for the largest exponent k."""
    exponents = list(exponents)
    S = _shift_to_normalized(max(max(e) for e in exponents))
    return np.stack([np.outer(S[:, i], S[:, j]) for i, j in exponents])


def polyval(coeffs: FloatArray, x: npt.ArrayLike, y: npt.ArrayLike):
    """One polynomial's values: Horner in u, then in v, as ``npoly.polyval2d``;
    broadcasts over arrays of any compatible shapes."""
    u = 2.0 * np.asarray(x, dtype=float) - 1.0
    v = 2.0 * np.asarray(y, dtype=float) - 1.0
    return npoly.polyval(v, npoly.polyval(u, coeffs), tensor=False)


def _differentiate(c: FloatArray, order_x: int, order_y: int) -> FloatArray:
    """Partial derivative of coefficient arrays over their trailing two axes.

    The combined multiplier per coefficient is formed from exact integers so
    that mixed derivatives do not depend on the differentiation order.
    """
    if order_x < 0 or order_y < 0:
        raise ValueError("derivative orders must be nonnegative")
    kx, ky = c.shape[-2] - 1, c.shape[-1] - 1
    if order_x > kx or order_y > ky:
        return np.zeros(c.shape[:-2] + (max(kx - order_x, 0) + 1,
                                        max(ky - order_y, 0) + 1))
    mi = np.array([perm(i + order_x, order_x) for i in range(kx + 1 - order_x)],
                  dtype=float)
    mj = np.array([perm(j + order_y, order_y) for j in range(ky + 1 - order_y)],
                  dtype=float)
    # d/dx = 2 d/du in normalized coordinates
    return c[..., order_x:, order_y:] * (
        (mi * 2.0**order_x)[:, None] * (mj * 2.0**order_y)[None, :])


class DofKind(Enum):
    """Point functional kinds; value is the (x, y) differentiation order."""

    VALUE = (0, 0)
    DX = (1, 0)
    DY = (0, 1)
    DXY = (1, 1)

    @property
    def orders(self) -> tuple[int, int]:
        return self.value

    @property
    def total_order(self) -> int:
        return self.value[0] + self.value[1]


@dataclass(frozen=True)
class DofFunctional:
    """A point functional: value or point derivative at a fixed location."""

    kind: DofKind
    point: tuple[float, float]

    def __call__(self, coeffs: FloatArray) -> float:
        """The functional applied to one polynomial's coefficient array."""
        return float(polyval(_differentiate(coeffs, *self.kind.orders), *self.point))


def functional_matrix(dofs, coeffs: FloatArray) -> FloatArray:
    """V[m, n] = dofs[m](coeffs[n]), with one Horner pass per derivative kind.

    Bit-identical to calling each functional: the recurrences repeat
    ``npoly.polyval2d``'s operations in its order, and leading zero
    coefficients leave Horner's value unchanged, signed zeros included.
    """
    V = np.empty((len(dofs), len(coeffs)))
    for kind in DofKind:
        rows = [m for m, dof in enumerate(dofs) if dof.kind is kind]
        if not rows:
            continue
        c = _differentiate(coeffs, *kind.orders)
        points = np.array([dofs[m].point for m in rows], dtype=float)
        u = 2.0 * points[:, 0] - 1.0
        v = 2.0 * points[:, 1] - 1.0
        # in u over the x axis for every point: (N, ky+1, P)
        acc = c[:, -1, :, None] + u * 0
        for i in range(2, c.shape[1] + 1):
            acc = c[:, -i, :, None] + acc * u
        # then in v over the y axis: (N, P)
        val = acc[:, -1] + v * 0
        for j in range(2, acc.shape[1] + 1):
            val = acc[:, -j] + val * v
        V[rows] = val.T
    return V
