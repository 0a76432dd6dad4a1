from math import perm

import numpy as np
import pytest

from c1rect.bell import bell_dofs, bell_nodal_basis, bell_space
from c1rect.elements import Family, element_basis, enriched_space
from c1rect.poly2d import (DofFunctional, DofKind, _differentiate, functional_matrix,
                           monomials, polyval)


def random_poly(rng, kx, ky, integer=False):
    """Normalized (kx+1, ky+1) coefficients of a random polynomial, and its
    plain coefficients c[i, j] of x^i y^j."""
    if integer:
        c = rng.integers(-8, 9, size=(kx + 1, ky + 1)).astype(float)
    else:
        c = rng.standard_normal((kx + 1, ky + 1))
    exps = [(i, j) for i in range(kx + 1) for j in range(ky + 1)]
    return np.tensordot(c.ravel(), monomials(exps), 1)[: kx + 1, : ky + 1], c


def naive_eval(c, x, y):
    """Term-by-term summation oracle for plain monomial coefficients."""
    total = 0.0
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            total += c[i, j] * x**i * y**j
    return total


def naive_derivative(c, ox, oy):
    """Partial derivative of plain monomial coefficients."""
    out = np.zeros((max(c.shape[0] - ox, 1), max(c.shape[1] - oy, 1)))
    for i in range(ox, c.shape[0]):
        for j in range(oy, c.shape[1]):
            out[i - ox, j - oy] = c[i, j] * perm(i, ox) * perm(j, oy)
    return out


def pad_stack(polys):
    """Coefficient arrays zero-padded to their common bidegree, stacked."""
    out = np.zeros((len(polys),) + tuple(np.max([p.shape for p in polys], axis=0)))
    for n, p in enumerate(polys):
        out[n, : p.shape[0], : p.shape[1]] = p
    return out


def test_monomial_eval():
    p = monomials([(2, 1)])[0]  # x^2 y
    assert polyval(p, 0.5, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_monomials_stack_shape():
    stack = monomials([(0, 0), (1, 3), (2, 0)])
    assert stack.shape == (3, 4, 4)
    for p, (i, j) in zip(stack, [(0, 0), (1, 3), (2, 0)]):
        assert polyval(p, 0.3, 0.7) == pytest.approx(0.3**i * 0.7**j, rel=1e-15)


def test_eval_matches_naive_summation(rng):
    for _ in range(5):
        p, c = random_poly(rng, 8, 8)
        for _ in range(20):
            x, y = rng.uniform(0, 1, size=2)
            expected = naive_eval(c, x, y)
            assert polyval(p, x, y) == pytest.approx(expected, rel=1e-13, abs=1e-14)


def test_eval_broadcasts_over_arrays(rng):
    p, c = random_poly(rng, 4, 3)
    xs = rng.uniform(0, 1, size=7)
    ys = rng.uniform(0, 1, size=7)
    vals = polyval(p, xs, ys)
    assert vals.shape == (7,)
    for x, y, v in zip(xs, ys, vals):
        assert v == pytest.approx(naive_eval(c, x, y), rel=1e-13, abs=1e-14)


def test_eval_broadcasts_over_shapes(rng):
    # polyval2d alone rejects (3, 1) against (1, 4)
    p, c = random_poly(rng, 4, 3)
    xs = rng.uniform(0, 1, size=(3, 1))
    ys = rng.uniform(0, 1, size=(1, 4))
    vals = polyval(p, xs, ys)
    assert vals.shape == (3, 4)
    expected = [[polyval(p, x, y) for y in ys[0]] for x in xs[:, 0]]
    assert np.array_equal(vals, expected)


def test_derivative_of_x2y():
    x2y, xy, x = monomials([(2, 1), (1, 1), (1, 0)])
    for got, want in ((_differentiate(x2y, 1, 0), 2.0 * xy[:2]),
                      (_differentiate(x2y, 1, 1), 2.0 * x[:2, :2])):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


def test_derivative_lowers_bidegree_with_floor():
    p = np.ones((3, 2))  # bidegree (2, 1)
    assert _differentiate(p, 1, 0).shape == (2, 2)
    assert _differentiate(p, 0, 2).shape == (3, 1)
    assert _differentiate(p, 3, 0).shape == (1, 2)
    assert _differentiate(np.full((1, 1), 3.0), 1, 0).shape == (1, 1)
    stack = np.ones((4, 3, 2))
    assert _differentiate(stack, 1, 1).shape == (4, 2, 1)


def test_derivative_matches_finite_differences(rng):
    step = 1e-5
    for _ in range(5):
        p, _ = random_poly(rng, 6, 6)
        px = _differentiate(p, 1, 0)
        py = _differentiate(p, 0, 1)
        for _ in range(5):
            x, y = rng.uniform(0.2, 0.8, size=2)
            fdx = (polyval(p, x + step, y) - polyval(p, x - step, y)) / (2 * step)
            fdy = (polyval(p, x, y + step) - polyval(p, x, y - step)) / (2 * step)
            assert polyval(px, x, y) == pytest.approx(fdx, rel=1e-6, abs=1e-7)
            assert polyval(py, x, y) == pytest.approx(fdy, rel=1e-6, abs=1e-7)


def test_mixed_derivative_commutes_exactly(rng):
    # integer coefficients keep every multiplier product exact in binary
    for _ in range(10):
        p, _ = random_poly(rng, 5, 5, integer=True)
        a = _differentiate(_differentiate(p, 1, 0), 0, 1)
        b = _differentiate(_differentiate(p, 0, 1), 1, 0)
        assert np.array_equal(a, b)


def test_mixed_derivative_commutes_float(rng):
    for _ in range(5):
        p, _ = random_poly(rng, 6, 6)
        a = _differentiate(_differentiate(p, 1, 0), 0, 1)
        b = _differentiate(_differentiate(p, 0, 1), 1, 0)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.abs(a).max())


def test_apply_functional_trivial_cases():
    one, x = monomials([(0, 0), (1, 0)])
    assert DofFunctional(DofKind.VALUE, (0.0, 0.0))(x + 3.0 * one) == pytest.approx(3.0)
    q = monomials([(2, 2)])[0]
    dxy = DofFunctional(DofKind.DXY, (1.0, 1.0))
    assert dxy(q) == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("kind", list(DofKind))
def test_apply_functional_matches_derivative_then_eval(kind, rng):
    for _ in range(5):
        p, c = random_poly(rng, 6, 6)
        pt = tuple(rng.uniform(0, 1, size=2))
        functional = DofFunctional(kind, pt)
        expected = polyval(_differentiate(p, *kind.orders), *pt)
        assert functional(p) == pytest.approx(expected, rel=1e-14, abs=1e-14)
        # an oracle that shares no code with poly2d: plain coefficients
        naive = naive_eval(naive_derivative(c, *kind.orders), *pt)
        assert functional(p) == pytest.approx(naive, rel=1e-11, abs=1e-11)


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
    via_xy = polyval(_differentiate(_differentiate(p, 1, 0), 0, 1), *pt)
    via_yx = polyval(_differentiate(_differentiate(p, 0, 1), 1, 0), *pt)
    functional = DofFunctional(DofKind.DXY, pt)
    assert functional(p) == pytest.approx(via_xy, rel=1e-13)
    assert functional(p) == pytest.approx(via_yx, rel=1e-13)


def _assert_same_bits(dofs, polys):
    """``functional_matrix`` on the padded stack equals every functional
    applied to each unpadded polynomial, bit for bit."""
    got = functional_matrix(dofs, pad_stack(polys))
    want = np.array([[dof(p) for p in polys] for dof in dofs])
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_functional_matrix_matches_functionals(degree, rng):
    k = degree
    spans = {
        Family.ENRICHED_P: enriched_space(k),
        Family.BFS_Q: monomials((i, j) for i in range(k + 1) for j in range(k + 1)),
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
    above = [np.array([[2.0]]), monomials([(0, 3)])[0, :1]]
    for polys in (above[:1], above[1:], above):
        _assert_same_bits(dofs, polys)
    V = functional_matrix(dofs, pad_stack(above))
    assert V[3, 0] == V[1, 1] == 0.0
    assert V[2, 1] == pytest.approx(3 * 0.75**2, rel=1e-14)
