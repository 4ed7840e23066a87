"""Jet arithmetic: ring axioms, calculus rules, reality, analytic maps."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkholonomy.jets import Jet, JetSpace, real_part

NC, ORDER = 2, 5
SPACE = JetSpace(NC, ORDER)


def _keys():
    out = []
    for i1 in range(ORDER + 1):
        for i2 in range(ORDER + 1 - i1):
            for j1 in range(ORDER + 1 - i1 - i2):
                for j2 in range(ORDER + 1 - i1 - i2 - j1):
                    out.append(((i1, i2), (j1, j2)))
    return out


_KEYS = _keys()

coeffs = st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False)


@st.composite
def jets(draw, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=n_terms,
                         max_size=n_terms, unique=True))
    return Jet(NC, ORDER, {k: draw(coeffs) for k in keys})


def _close(a: Jet, b: Jet, tol=1e-10):
    scale = max(a.max_abs(), b.max_abs(), 1.0)
    return (a - b).max_abs() <= tol * scale


@given(jets(), jets(), jets())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert _close(a + b, b + a)
    assert _close((a + b) + c, a + (b + c))
    assert _close(a * b, b * a)
    assert _close((a * b) * c, a * (b * c))
    assert _close(a * (b + c), a * b + a * c)
    one = SPACE.constant(1.0)
    assert _close(a * one, a.truncated(min(a.order, one.order)))


@given(jets(), jets())
@settings(max_examples=60, deadline=None)
def test_leibniz(a, b):
    for var in range(NC):
        for holo in (True, False):
            lhs = (a * b).derivative(var, holo)
            rhs = a.derivative(var, holo) * b + a * b.derivative(var, holo)
            # the product rule only holds on the common truncation
            assert _close(lhs.truncated(ORDER - 1), rhs.truncated(ORDER - 1))


@given(jets())
@settings(max_examples=60, deadline=None)
def test_conjugation_involution(a):
    assert _close(a.conjugate().conjugate(), a)
    w = real_part(a)
    assert w.is_real_valued(1e-12)


@given(jets(), jets())
@settings(max_examples=40, deadline=None)
def test_exp_homomorphism(a, b):
    a = a - SPACE.constant(a.constant_term())
    b = b - SPACE.constant(b.constant_term())
    assert _close((a + b).exp(), a.exp() * b.exp(), 1e-9)


@given(jets())
@settings(max_examples=40, deadline=None)
def test_reciprocal_and_sqrt(a):
    g = SPACE.constant(1.0) + (a - SPACE.constant(a.constant_term())) * 0.5
    assert _close(g * g.reciprocal(), SPACE.constant(1.0), 1e-9)
    s = g.sqrt()
    assert _close(s * s, g, 1e-9)


def test_derivative_at_zero_factorials():
    u = SPACE.variable(1)
    f = u * u * u
    assert abs(f.derivative_at_zero((0, 3), (0, 0)) - 6.0) < 1e-14


def test_mixed_partials_commute():
    f = (SPACE.variable(0) * SPACE.conj_variable(1)
         + SPACE.variable(1) * SPACE.variable(1) * SPACE.conj_variable(0))
    d1 = f.derivative(0, True).derivative(1, False)
    d2 = f.derivative(1, False).derivative(0, True)
    assert _close(d1, d2, 0.0)


def test_divide_power_inverts_multiplication():
    u = SPACE.variable(1)
    a = SPACE.constant(2.0) + SPACE.conj_variable(0)
    prod = a * u * u
    back = prod.divide_power(1, 2, holomorphic=True)
    assert _close(back, a.truncated(back.order))


def test_finite_difference_oracle(rng):
    """Jet derivatives against central differences at 5 random points."""
    f = (SPACE.variable(0) * SPACE.variable(0) * SPACE.conj_variable(1)
         + SPACE.constant(0.3) * SPACE.variable(1) * SPACE.conj_variable(0)
         + SPACE.variable(1).exp())
    h = 1e-5
    for _ in range(5):
        z = 0.1 * (rng.standard_normal(NC) + 1j * rng.standard_normal(NC))
        zb = 0.1 * (rng.standard_normal(NC) + 1j * rng.standard_normal(NC))
        for var in range(NC):
            e = np.zeros(NC, complex)
            e[var] = h
            fd = (f.evaluate(z + e, zb) - f.evaluate(z - e, zb)) / (2 * h)
            exact = f.derivative(var, True).evaluate(z, zb)
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1.0)
            fd = (f.evaluate(z, zb + e) - f.evaluate(z, zb - e)) / (2 * h)
            exact = f.derivative(var, False).evaluate(z, zb)
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1.0)


def test_order_mixing_takes_min():
    a = Jet.constant(1.0, NC, 6)
    b = Jet.constant(1.0, NC, 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


def _reference_product(a: Jet, b: Jet) -> Jet:
    """The plain double loop of the jet product, with each degree recomputed
    for every pair: the reference the kernel must reproduce exactly."""
    order = min(a.order, b.order)
    out = {}
    for (I1, J1), c1 in a.coeffs.items():
        d1 = sum(I1) + sum(J1)
        if d1 > order:
            continue
        for (I2, J2), c2 in b.coeffs.items():
            if d1 + sum(I2) + sum(J2) > order:
                continue
            key = (tuple(x + y for x, y in zip(I1, I2)),
                   tuple(x + y for x, y in zip(J1, J2)))
            out[key] = out.get(key, 0.0) + c1 * c2
    return Jet(a.num_coords, order, out)


def _same_bits(a: Jet, b: Jet) -> bool:
    """Same order, same keys in the same order, bit-equal coefficients."""
    return (a.order == b.order and list(a.coeffs) == list(b.coeffs)
            and np.array(list(a.coeffs.values()), complex).tobytes()
            == np.array(list(b.coeffs.values()), complex).tobytes())


# keys up to two degrees above ORDER, so some stored terms exceed the order
_WIDE_KEYS = [((i1, i2), (j1, j2))
              for i1 in range(ORDER + 3) for i2 in range(ORDER + 3 - i1)
              for j1 in range(ORDER + 3 - i1 - i2)
              for j2 in range(ORDER + 3 - i1 - i2 - j1)]


@st.composite
def wide_jets(draw, max_terms=12):
    keys = draw(st.lists(st.sampled_from(_WIDE_KEYS), max_size=max_terms, unique=True))
    return Jet(NC, draw(st.integers(0, ORDER)), {k: draw(coeffs) for k in keys})


@given(wide_jets(), wide_jets())
@settings(max_examples=200, deadline=None)
def test_product_matches_the_reference_loop_bit_for_bit(a, b):
    assert _same_bits(a * b, _reference_product(a, b))
    assert _same_bits(b * a, _reference_product(b, a))


def test_dense_product_matches_the_reference_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    nc = 3

    def dense(order, n_terms):
        coeffs = {}
        for _ in range(n_terms):
            e = rng.multinomial(int(rng.integers(0, order + 3)), [1 / (2 * nc)] * (2 * nc))
            coeffs[(tuple(int(x) for x in e[:nc]), tuple(int(x) for x in e[nc:]))] = \
                complex(rng.standard_normal(), rng.standard_normal())
        return Jet(nc, order, coeffs)

    a, b = dense(7, 150), dense(5, 80)
    assert _same_bits(a * b, _reference_product(a, b))
    assert _same_bits(b * a, _reference_product(b, a))
    assert _same_bits(a * a, _reference_product(a, a))
    empty = Jet(nc, 7, {})
    assert _same_bits(a * empty, _reference_product(a, empty))
    assert _same_bits(empty * b, _reference_product(empty, b))
