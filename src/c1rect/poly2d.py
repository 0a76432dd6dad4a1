"""Dense bivariate polynomials and point-derivative functionals.

Polynomials live on the reference square [0,1]^2.  Coefficients are stored
against monomials of the normalized coordinates ``u = 2x - 1, v = 2y - 1``:
``p(x, y) = sum_ij c[i, j] u^i v^j``.  Degree-8 nodal bases have normalized
coefficients of moderate size (~1e3), whereas their plain ``x^i y^j``
coefficients reach ~1e9 and cannot be evaluated to the accuracy the element
certificates demand; the normalized carrier keeps every evaluation within a
few ulps.  Plain monomial coefficients remain available for construction and
inspection through :meth:`Poly2D.from_monomial` / :attr:`Poly2D.monomial_coeffs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, perm

import numpy as np
import numpy.polynomial.polynomial as npoly
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]


def _shift_to_normalized(n: int) -> FloatArray:
    """Matrix S with x^i = sum_m S[m, i] u^m for u = 2x - 1."""
    S = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for m in range(i + 1):
            S[m, i] = comb(i, m) * 0.5**i
    return S


def _shift_to_plain(n: int) -> FloatArray:
    """Matrix T with u^m = sum_i T[i, m] x^i, i.e. the inverse shift."""
    T = np.zeros((n + 1, n + 1))
    for m in range(n + 1):
        for i in range(m + 1):
            T[i, m] = comb(m, i) * 2.0**i * (-1.0) ** (m - i)
    return T


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


class Poly2D:
    """Bivariate polynomial with dense normalized-monomial coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: npt.ArrayLike):
        c = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if c.ndim != 2:
            raise ValueError("coefficients must form a 2-d array")
        self.coeffs: FloatArray = c

    # -- construction -------------------------------------------------

    @classmethod
    def from_monomial(cls, coeffs: npt.ArrayLike) -> "Poly2D":
        """Build from plain coefficients a[i, j] multiplying x^i y^j."""
        a = np.atleast_2d(np.asarray(coeffs, dtype=float))
        kx, ky = a.shape[0] - 1, a.shape[1] - 1
        return cls(_shift_to_normalized(kx) @ a @ _shift_to_normalized(ky).T)

    @classmethod
    def zero(cls) -> "Poly2D":
        return cls(np.zeros((1, 1)))

    @classmethod
    def constant(cls, value: float) -> "Poly2D":
        return cls(np.array([[float(value)]]))

    @classmethod
    def monomial(cls, i: int, j: int) -> "Poly2D":
        """The plain monomial x^i y^j."""
        a = np.zeros((i + 1, j + 1))
        a[i, j] = 1.0
        return cls.from_monomial(a)

    # -- inspection ----------------------------------------------------

    @property
    def bidegree(self) -> tuple[int, int]:
        return self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1

    @property
    def monomial_coeffs(self) -> FloatArray:
        """Plain coefficients a[i, j] multiplying x^i y^j."""
        kx, ky = self.bidegree
        return _shift_to_plain(kx) @ self.coeffs @ _shift_to_plain(ky).T

    def padded(self, kx: int, ky: int) -> FloatArray:
        out = np.zeros((kx + 1, ky + 1))
        out[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        return out

    def max_coeff_diff(self, other: "Poly2D") -> float:
        """Coefficient max-norm distance after padding to common bidegree."""
        kx = max(self.coeffs.shape[0], other.coeffs.shape[0]) - 1
        ky = max(self.coeffs.shape[1], other.coeffs.shape[1]) - 1
        return float(np.max(np.abs(self.padded(kx, ky) - other.padded(kx, ky))))

    # -- evaluation and calculus ---------------------------------------

    def __call__(self, x: npt.ArrayLike, y: npt.ArrayLike):
        """Horner in u, then in v, as ``npoly.polyval2d``; broadcasts over arrays."""
        u = 2.0 * np.asarray(x, dtype=float) - 1.0
        v = 2.0 * np.asarray(y, dtype=float) - 1.0
        return npoly.polyval(v, npoly.polyval(u, self.coeffs), tensor=False)

    def derivative(self, order_x: int = 0, order_y: int = 0) -> "Poly2D":
        """Exact partial derivative; lowers each bidegree component, floor 0."""
        return Poly2D(_differentiate(self.coeffs, order_x, order_y))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Poly2D") -> "Poly2D":
        kx = max(self.coeffs.shape[0], other.coeffs.shape[0]) - 1
        ky = max(self.coeffs.shape[1], other.coeffs.shape[1]) - 1
        return Poly2D(self.padded(kx, ky) + other.padded(kx, ky))

    def __sub__(self, other: "Poly2D") -> "Poly2D":
        return self + (-1.0) * other

    def __neg__(self) -> "Poly2D":
        return Poly2D(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Poly2D):
            a, b = self.coeffs, other.coeffs
            out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    if a[i, j] != 0.0:
                        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
            return Poly2D(out)
        return Poly2D(float(other) * self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Poly2D(bidegree={self.bidegree})"


@dataclass(frozen=True)
class DofFunctional:
    """A point functional: value or point derivative at a fixed location."""

    kind: DofKind
    point: tuple[float, float]

    def __call__(self, p: Poly2D) -> float:
        ox, oy = self.kind.orders
        return float(p.derivative(ox, oy)(self.point[0], self.point[1]))


def stack_coeffs(polys) -> FloatArray:
    """Coefficients of ``polys`` zero-padded to a common bidegree: (N, kx+1, ky+1)."""
    kx = max(p.coeffs.shape[0] for p in polys) - 1
    ky = max(p.coeffs.shape[1] for p in polys) - 1
    return np.stack([p.padded(kx, ky) for p in polys])


def functional_matrix(dofs, polys) -> FloatArray:
    """V[m, n] = dofs[m](polys[n]), with one Horner pass per derivative kind.

    Bit-identical to calling each functional: the recurrences repeat
    ``npoly.polyval2d``'s operations in its order, and the leading zeros of
    the padding leave Horner's value unchanged, signed zeros included.
    """
    coeffs = stack_coeffs(polys)
    V = np.empty((len(dofs), len(polys)))
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
