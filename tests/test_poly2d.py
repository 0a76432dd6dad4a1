import numpy as np
import pytest

from c1rect.bell import bell_dofs, bell_nodal_basis, bell_space
from c1rect.elements import Family, element_basis, enriched_space
from c1rect.poly2d import DofFunctional, DofKind, Poly2D, functional_matrix


def random_poly(rng, kx, ky, integer=False):
    if integer:
        c = rng.integers(-8, 9, size=(kx + 1, ky + 1)).astype(float)
    else:
        c = rng.standard_normal((kx + 1, ky + 1))
    return Poly2D.from_monomial(c), c


def naive_eval(c, x, y):
    """Term-by-term summation oracle for plain monomial coefficients."""
    total = 0.0
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            total += c[i, j] * x**i * y**j
    return total


def test_monomial_eval():
    p = Poly2D.monomial(2, 1)  # x^2 y
    assert p(0.5, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_constant_eval():
    assert Poly2D.constant(1.0)(0.3, 0.7) == pytest.approx(1.0, abs=1e-15)


def test_eval_matches_naive_summation(rng):
    for _ in range(5):
        p, c = random_poly(rng, 8, 8)
        for _ in range(20):
            x, y = rng.uniform(0, 1, size=2)
            expected = naive_eval(c, x, y)
            assert p(x, y) == pytest.approx(expected, rel=1e-13, abs=1e-14)


def test_eval_broadcasts_over_arrays(rng):
    p, c = random_poly(rng, 4, 3)
    xs = rng.uniform(0, 1, size=7)
    ys = rng.uniform(0, 1, size=7)
    vals = p(xs, ys)
    assert vals.shape == (7,)
    for x, y, v in zip(xs, ys, vals):
        assert v == pytest.approx(naive_eval(c, x, y), rel=1e-13, abs=1e-14)


def test_eval_broadcasts_over_shapes(rng):
    # polyval2d alone rejects (3, 1) against (1, 4)
    p, c = random_poly(rng, 4, 3)
    xs = rng.uniform(0, 1, size=(3, 1))
    ys = rng.uniform(0, 1, size=(1, 4))
    vals = p(xs, ys)
    assert vals.shape == (3, 4)
    expected = [[p(x, y) for y in ys[0]] for x in xs[:, 0]]
    assert np.array_equal(vals, expected)


def test_derivative_of_x2y():
    p = Poly2D.monomial(2, 1)
    for got, want in ((p.derivative(1, 0), 2.0 * Poly2D.monomial(1, 1)),
                      (p.derivative(1, 1), 2.0 * Poly2D.monomial(1, 0))):
        assert got.coeffs.shape == want.coeffs.shape
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12


def test_derivative_lowers_bidegree_with_floor():
    p = Poly2D.monomial(2, 1)
    assert p.derivative(1, 0).bidegree == (1, 1)
    assert p.derivative(0, 2).bidegree == (2, 0)
    assert p.derivative(3, 0).bidegree == (0, 1)
    assert Poly2D.constant(3.0).derivative(1, 0).bidegree == (0, 0)


def test_derivative_matches_finite_differences(rng):
    step = 1e-5
    for _ in range(5):
        p, _ = random_poly(rng, 6, 6)
        px = p.derivative(1, 0)
        py = p.derivative(0, 1)
        for _ in range(5):
            x, y = rng.uniform(0.2, 0.8, size=2)
            fdx = (p(x + step, y) - p(x - step, y)) / (2 * step)
            fdy = (p(x, y + step) - p(x, y - step)) / (2 * step)
            assert px(x, y) == pytest.approx(fdx, rel=1e-6, abs=1e-7)
            assert py(x, y) == pytest.approx(fdy, rel=1e-6, abs=1e-7)


def test_mixed_derivative_commutes_exactly(rng):
    # integer coefficients keep every multiplier product exact in binary
    for _ in range(10):
        p, _ = random_poly(rng, 5, 5, integer=True)
        a = p.derivative(1, 0).derivative(0, 1)
        b = p.derivative(0, 1).derivative(1, 0)
        assert np.array_equal(a.coeffs, b.coeffs)


def test_mixed_derivative_commutes_float(rng):
    for _ in range(5):
        p, _ = random_poly(rng, 6, 6)
        a = p.derivative(1, 0).derivative(0, 1)
        b = p.derivative(0, 1).derivative(1, 0)
        assert a.max_coeff_diff(b) <= 1e-12 * max(1.0, np.abs(a.coeffs).max())


def test_arithmetic_roundtrip(rng):
    p, cp = random_poly(rng, 3, 5)
    q, cq = random_poly(rng, 5, 2)
    s = p + 2.5 * q
    x, y = 0.37, 0.81
    assert s(x, y) == pytest.approx(p(x, y) + 2.5 * q(x, y), rel=1e-13)
    prod = p * q
    assert prod(x, y) == pytest.approx(p(x, y) * q(x, y), rel=1e-12)
    assert prod.bidegree == (8, 7)


def test_monomial_coeffs_roundtrip(rng):
    p, c = random_poly(rng, 6, 6)
    assert np.allclose(p.monomial_coeffs, c, rtol=1e-12, atol=1e-12)


def test_apply_functional_trivial_cases():
    p = Poly2D.from_monomial(np.array([[3.0], [1.0]]))  # x + 3
    assert DofFunctional(DofKind.VALUE, (0.0, 0.0))(p) == pytest.approx(3.0)
    q = Poly2D.monomial(2, 2)
    dxy = DofFunctional(DofKind.DXY, (1.0, 1.0))
    assert dxy(q) == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("kind", list(DofKind))
def test_apply_functional_matches_derivative_then_eval(kind, rng):
    for _ in range(5):
        p, _ = random_poly(rng, 6, 6)
        pt = tuple(rng.uniform(0, 1, size=2))
        functional = DofFunctional(kind, pt)
        ox, oy = kind.orders
        expected = p.derivative(ox, oy)(pt[0], pt[1])
        assert functional(p) == pytest.approx(expected, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("kind", list(DofKind))
def test_functional_linearity(kind, rng):
    for _ in range(5):
        p, _ = random_poly(rng, 5, 5)
        q, _ = random_poly(rng, 5, 5)
        a, b = rng.standard_normal(2)
        pt = tuple(rng.uniform(0, 1, size=2))
        functional = DofFunctional(kind, pt)
        combined = functional(a * p + b * q)
        split = a * functional(p) + b * functional(q)
        scale = max(1.0, abs(split))
        assert abs(combined - split) <= 1e-13 * scale


def test_dxy_symmetric(rng):
    p, _ = random_poly(rng, 5, 5)
    pt = (0.3, 0.6)
    via_xy = p.derivative(1, 0).derivative(0, 1)(pt[0], pt[1])
    via_yx = p.derivative(0, 1).derivative(1, 0)(pt[0], pt[1])
    functional = DofFunctional(DofKind.DXY, pt)
    assert functional(p) == pytest.approx(via_xy, rel=1e-13)
    assert functional(p) == pytest.approx(via_yx, rel=1e-13)


def _assert_same_bits(dofs, polys):
    got = functional_matrix(dofs, polys)
    want = np.array([[dof(p) for p in polys] for dof in dofs])
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_functional_matrix_matches_functionals(degree, rng):
    k = degree
    spans = {
        Family.ENRICHED_P: enriched_space(k),
        Family.BFS_Q: [Poly2D.monomial(i, j) for i in range(k + 1) for j in range(k + 1)],
    }
    for family, span in spans.items():
        eb = element_basis(family, k)
        _assert_same_bits(eb.dofs, eb.nodal)
        _assert_same_bits(eb.dofs, span)
    bb = bell_nodal_basis(k)
    _assert_same_bits(bb.dofs, bb.nodal)
    _assert_same_bits(bell_dofs(k), bell_space(k))
    # mixed bidegrees exercise the zero padding of the stack
    mixed = [random_poly(rng, kx, ky)[0] for kx, ky in ((0, 0), (3, 1), (1, 5), (k, 2))]
    _assert_same_bits(bb.dofs, mixed)
    # derivative orders above the degree: DXY of a constant, DX of y^3
    dofs = [DofFunctional(kind, (0.25, 0.75)) for kind in DofKind]
    above = [Poly2D.constant(2.0), Poly2D.monomial(0, 3)]
    for polys in (above[:1], above[1:], above):
        _assert_same_bits(dofs, polys)
    V = functional_matrix(dofs, above)
    assert V[3, 0] == V[1, 1] == 0.0
    assert V[2, 1] == pytest.approx(3 * 0.75**2, rel=1e-14)
