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
from math import comb

import numpy as np
import numpy.polynomial.polynomial as npoly
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]

#: tolerance for coefficient-wise polynomial identity checks
COEFF_TOL = 1e-12


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

    def coeffs_close(self, other: "Poly2D", tol: float = COEFF_TOL) -> bool:
        return self.max_coeff_diff(other) <= tol

    # -- evaluation and calculus ---------------------------------------

    def __call__(self, x: npt.ArrayLike, y: npt.ArrayLike):
        """Evaluate by nested Horner recurrences; broadcasts over arrays."""
        u = 2.0 * np.asarray(x, dtype=float) - 1.0
        v = 2.0 * np.asarray(y, dtype=float) - 1.0
        return npoly.polyval2d(u, v, self.coeffs)

    def derivative(self, order_x: int = 0, order_y: int = 0) -> "Poly2D":
        """Exact partial derivative; lowers each bidegree component, floor 0.

        The combined multiplier per coefficient is formed as one exact
        integer product so that mixed derivatives do not depend on the
        differentiation order.
        """
        if order_x < 0 or order_y < 0:
            raise ValueError("derivative orders must be nonnegative")
        c = self.coeffs
        kx, ky = self.bidegree
        if order_x > kx or order_y > ky:
            return Poly2D(np.zeros((max(kx - order_x, 0) + 1, max(ky - order_y, 0) + 1)))
        out = c[order_x:, order_y:].copy()
        nx, ny = out.shape
        mi = np.array(
            [np.prod(np.arange(i + 1, i + order_x + 1)) for i in range(nx)], dtype=float
        )
        mj = np.array(
            [np.prod(np.arange(j + 1, j + order_y + 1)) for j in range(ny)], dtype=float
        )
        # d/dx = 2 d/du in normalized coordinates
        out *= (mi * 2.0**order_x)[:, None] * (mj * 2.0**order_y)[None, :]
        return Poly2D(out)

    def laplacian(self) -> "Poly2D":
        return self.derivative(2, 0) + self.derivative(0, 2)

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
