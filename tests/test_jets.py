"""Jet arithmetic: ring axioms, calculus rules, reality, analytic maps."""
import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (evaluate, reference_exp, reference_reciprocal, same_bits, table_jmat)

from lkholonomy import geometry as G
from lkholonomy import potentials as P
from lkholonomy.jets import (MAX_ORDER, Jet, JetSpace, pack, real_part, table_from_parts,
                             table_parts)
from lkholonomy.potentials import antiderivative

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
def test_reciprocal_inverts(a):
    g = SPACE.constant(1.0) + (a - SPACE.constant(a.constant_term())) * 0.5
    assert _close(g * g.reciprocal(), SPACE.constant(1.0), 1e-9)


def test_mixed_partials_commute():
    f = (SPACE.variable(0) * SPACE.conj_variable(1)
         + SPACE.variable(1) * SPACE.variable(1) * SPACE.conj_variable(0))
    d1 = f.derivative(0, True).derivative(1, False)
    d2 = f.derivative(1, False).derivative(0, True)
    assert _close(d1, d2, 0.0)


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
            fd = (evaluate(f, z + e, zb) - evaluate(f, z - e, zb)) / (2 * h)
            exact = evaluate(f.derivative(var, True), z, zb)
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1.0)
            fd = (evaluate(f, z, zb + e) - evaluate(f, z, zb - e)) / (2 * h)
            exact = evaluate(f.derivative(var, False), z, zb)
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1.0)


def test_order_mixing_takes_min():
    a = Jet.constant(1.0, NC, 6)
    b = Jet.constant(1.0, NC, 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_truncated_drops_terms_above_the_jet_order():
    a = Jet(2, 3, {((4, 0), (0, 0)): 5.0, ((1, 0), (0, 1)): 2.0})
    for order in (3, 5):
        t = a.truncated(order)
        assert t.order == 3 and t.coeffs == {((1, 0), (0, 1)): 2.0}


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
    assert same_bits(a * b, _reference_product(a, b))
    assert same_bits(b * a, _reference_product(b, a))


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
    assert same_bits(a * b, _reference_product(a, b))
    assert same_bits(b * a, _reference_product(b, a))
    assert same_bits(a * a, _reference_product(a, a))
    empty = Jet(nc, 7, {})
    assert same_bits(a * empty, _reference_product(a, empty))
    assert same_bits(empty * b, _reference_product(empty, b))


# -- graded recursions against the power series they replaced ------------------

def _compose(jet: Jet, series: list[complex]) -> Jet:
    """sum_k series[k] (jet - jet(0))^k with powers cleaned at 1e-12: the
    power-series code that exp and reciprocal used before the recursions."""
    t = jet - jet.constant_term()
    acc = Jet.constant(series[0], jet.num_coords, jet.order)
    power = Jet.constant(1.0, jet.num_coords, jet.order)
    for k in range(1, len(series)):
        power = power * t
        scale = max(power.max_abs(), 1.0)
        power = Jet(power.num_coords, power.order,
                    {key: c for key, c in power.coeffs.items() if abs(c) > 1e-12 * scale})
        if not power.coeffs:
            break
        acc = acc + power * series[k]
    return acc


def _dense_jet(rng, a0: complex) -> Jet:
    """Every monomial up to ORDER, with seeded coefficients of size ~0.3."""
    coeffs = {k: 0.3 * complex(*rng.standard_normal(2)) for k in _KEYS}
    coeffs[((0, 0), (0, 0))] = a0
    return Jet(NC, ORDER, coeffs)


def _rel_close(a: Jet, ref: Jet, tol=1e-12) -> bool:
    return (a - ref).max_abs() <= tol * max(ref.max_abs(), 1.0)


@pytest.mark.parametrize("seed", range(5))
def test_recursions_match_the_power_series(seed):
    rng = np.random.default_rng(seed)
    a = _dense_jet(rng, complex(1.5, 0.5))
    a0 = a.constant_term()
    recip = _compose(a, [(-1.0) ** k / a0 ** (k + 1) for k in range(ORDER + 1)])
    assert _rel_close(a.reciprocal(), recip)
    e = _compose(a, [np.exp(a0) / math.factorial(k) for k in range(ORDER + 1)])
    assert _rel_close(a.exp(), e)


def test_reciprocal_of_one_plus_x_is_the_geometric_series():
    x = SPACE.variable(0) + SPACE.conj_variable(1) * 2.0
    expected, power = SPACE.constant(1.0), SPACE.constant(1.0)
    for _ in range(ORDER):
        power = power * (-x)
        expected = expected + power
    got = (SPACE.constant(1.0) + x).reciprocal()
    assert got.coeffs == expected.coeffs


def test_exp_has_the_factorial_coefficients():
    e = SPACE.variable(1).exp()
    assert len(e.coeffs) == ORDER + 1
    for k in range(ORDER + 1):
        assert e.coefficient((0, k), (0, 0)) == pytest.approx(1.0 / math.factorial(k),
                                                             rel=1e-15)


def _entry(table: dict, order: int) -> Jet:
    """The jet of a one-entry table."""
    return table_jmat(table, (1, 1), JetSpace(NC, order))[0, 0]


def test_graded_parts_rebuild_the_jet():
    a = Jet(NC, 3, {((1, 0), (0, 0)): 2.0, ((0, 0), (0, 0)): 1.0,
                    ((1, 1), (0, 1)): 3.0, ((4, 0), (0, 0)): 5.0})
    parts = table_parts({(0, 0): a.terms}, a.order)
    assert [p is None for p in parts] == [False, False, True, False]
    assert list(_entry(parts[3], 3).coeffs) == [((1, 1), (0, 1))]
    assert _entry(table_from_parts(parts), 3).coeffs == {k: c for k, c in a.coeffs.items()
                                                         if sum(k[0]) + sum(k[1]) <= 3}


def _seeded_jet(rng, nc: int, order: int) -> Jet:
    """Up to six seeded terms of degree 1..order in nc coordinates, some
    with zero parts of either sign, and a nonzero constant term."""
    parts = [0.0, -0.0, 0.5, -1.25]
    coeffs = {}
    for _ in range(int(rng.integers(0, 7)) if order else 0):
        e = rng.multinomial(int(rng.integers(1, order + 1)), [1 / (2 * nc)] * (2 * nc))
        re, im = rng.standard_normal(2) * 0.4
        coeffs[(tuple(int(x) for x in e[:nc]), tuple(int(x) for x in e[nc:]))] = (
            complex(parts[int(rng.integers(4))], im) if rng.random() < 0.25 else complex(re, im))
    coeffs[((0,) * nc, (0,) * nc)] = complex(1.0 + rng.random(), rng.standard_normal())
    return Jet(nc, order, coeffs)


@pytest.mark.parametrize("seed", range(3))
def test_exp_and_reciprocal_are_the_jet_recursions_bit_for_bit(seed):
    """Jet.exp and Jet.reciprocal, graded solves on one-entry tables, have
    the keys in the same order and the coefficient bytes of the recursions
    on jet parts over Jet.__mul__ (tests/oracles.py), at orders 0-10 in 1-4
    coordinates."""
    rng = np.random.default_rng(seed)
    for nc in range(1, 5):
        for order in range(11):
            a = _seeded_jet(rng, nc, order)
            assert same_bits(a.exp(), reference_exp(a)), (nc, order)
            assert same_bits(a.reciprocal(), reference_reciprocal(a)), (nc, order)


def test_exp_and_reciprocal_of_the_suite_are_the_jet_recursions_bit_for_bit(suite, monkeypatch):
    """The same on every jet that the suite's potentials at order 10 take exp
    of, every jet that their metrics' Walker inverses take the reciprocal
    of, and the reciprocal of each of those exponentials."""
    seen: dict = {"exp": [], "reciprocal": []}
    for name, found in seen.items():
        monkeypatch.setattr(Jet, name, lambda a, fn=getattr(Jet, name), found=found:
                            found.append(a) or fn(a))
    for d in suite:
        G.metric_from_potential(P.build_potential(d, order=10)).inverse()
    monkeypatch.undo()
    assert seen["exp"] and seen["reciprocal"]
    for a in seen["exp"]:
        assert same_bits(a.exp(), reference_exp(a))
        assert same_bits(a.exp().reciprocal(), reference_reciprocal(reference_exp(a)))
    for a in seen["reciprocal"]:
        assert same_bits(a.reciprocal(), reference_reciprocal(a))


# -- packed keys against tuple-key reference loops ------------------------------

def _deg(key) -> int:
    return sum(key[0]) + sum(key[1])


def _tuple_jet(a: Jet) -> dict:
    """The terms of a jet as a plain (I, J)-keyed dict, in storage order."""
    return dict(a.coeffs.items())


@st.composite
def limit_jets(draw, max_terms=8):
    """Jets of order up to the packing limit, with terms at degrees 0,
    order - 1, order and order + 1 (dropped by the constructor), and whole
    degrees in one exponent."""
    order = draw(st.sampled_from([0, 1, 3, ORDER, MAX_ORDER - 1, MAX_ORDER]))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        d = draw(st.sampled_from([0, max(order - 1, 0), order, order + 1])
                 | st.integers(0, order + 1))
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=3, max_size=3)))
        e = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2]]
        terms[((e[0], e[1]), (e[2], e[3]))] = draw(coeffs)
    return Jet(NC, order, terms), terms


@given(limit_jets())
@settings(max_examples=100, deadline=None)
def test_constructor_keeps_the_terms_up_to_the_order_in_their_order(jc):
    a, terms = jc
    kept = {k: c for k, c in terms.items() if _deg(k) <= a.order}
    assert list(a.coeffs) == list(kept) and _tuple_jet(a) == kept
    assert len(a.coeffs) == len(kept)
    for (I, J), c in kept.items():
        assert a.coefficient(I, J) == c and a.coeffs[(I, J)] == c
    assert a.coefficient((MAX_ORDER + 1, 0), (0, 0)) == 0


@given(limit_jets())
@settings(max_examples=100, deadline=None)
def test_coeffs_is_a_detached_dict_that_rebuilds_the_jet(jc):
    """Jet.coeffs is a new dict keyed (I, J) in the order of `terms`:
    writing into it leaves the jet unchanged, and the constructor rebuilds
    the jet from it bit for bit."""
    a, _ = jc
    before = list(a.terms.items())
    keyed = a.coeffs
    assert type(keyed) is dict and [pack(I, J) for I, J in keyed] == list(a.terms)
    b = Jet(NC, a.order, keyed)
    assert list(b.terms) == list(a.terms)
    assert (np.array(list(b.terms.values()), complex).tobytes()
            == np.array(list(a.terms.values()), complex).tobytes())
    keyed.clear()
    keyed[((0, 0), (0, 0))] = 9.0
    assert list(a.terms.items()) == before


@given(limit_jets())
@settings(max_examples=100, deadline=None)
def test_conjugate_and_reality_match_the_tuple_loops(jc):
    a, _ = jc
    t = _tuple_jet(a)
    assert same_bits(a.conjugate(), Jet(NC, a.order, {(J, I): np.conj(c)
                                                       for (I, J), c in t.items()}))
    scale = max(a.max_abs(), 1.0)
    real = all(abs(c - np.conj(t.get((J, I), 0.0))) <= 1e-12 * scale
               for (I, J), c in t.items())
    assert a.is_real_valued() == real
    assert real_part(a).is_real_valued()


def _shifted(key, var, holo, step):
    I, J = key
    e = list(I if holo else J)
    e[var] += step
    return (tuple(e), J) if holo else (I, tuple(e))


@given(limit_jets(), st.integers(0, NC - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_calculus_matches_the_tuple_loops(jc, var, holo):
    a, _ = jc
    t = _tuple_jet(a)
    side = 0 if holo else 1
    if a.order >= 1:
        ref = {}
        for key, c in t.items():
            d = key[side][var]
            if d:
                k = _shifted(key, var, holo, -1)
                ref[k] = ref.get(k, 0.0) + d * c
        assert same_bits(a.derivative(var, holo), Jet(NC, a.order - 1, ref))
    ref = {}
    for key, c in t.items():
        k = _shifted(key, var, holo, 1)
        if _deg(k) <= a.order:
            ref[k] = c / k[side][var]
    assert same_bits(antiderivative(a, var, holo), Jet(NC, a.order, ref))


@pytest.mark.parametrize("factor", [-1.0, 0.5j, 2.0 - 1.0j])
def test_a_derivative_with_a_factor_is_the_scaled_derivative_bit_for_bit(factor):
    """One pass gives the floats of the derivative times the scalar, down to
    the sign of every zero part."""
    parts = [complex(x, y) for x in (0.0, -0.0, 1.5) for y in (0.0, -0.0, -2.5)]
    a = Jet(NC, ORDER, {k: parts[i % len(parts)] for i, k in enumerate(_KEYS)})
    for var in range(NC):
        for holo in (True, False):
            assert same_bits(a.derivative(var, holo, factor), a.derivative(var, holo) * factor)


@given(limit_jets())
@settings(max_examples=100, deadline=None)
def test_graded_parts_match_the_tuple_loop(jc):
    a, _ = jc
    ref = [{} for _ in range(a.order + 1)]
    for key, c in _tuple_jet(a).items():
        ref[_deg(key)][key] = c
    parts = table_parts({(0, 0): a.terms}, a.order)
    assert [p is None for p in parts] == [not r for r in ref]
    for p, r in zip(parts, ref):
        if r:
            assert same_bits(_entry(p, a.order), Jet(NC, a.order, r))


def test_the_top_degree_stays_in_its_fields():
    """At the packing limit, a degree-MAX_ORDER term and its antiderivative's
    dropped successor leave every other exponent untouched."""
    top, one = ((MAX_ORDER, 0), (0, 0)), ((0, 0), (0, 0))
    b = Jet(NC, MAX_ORDER, {top: 2.0, one: 1.0})
    assert _tuple_jet(b * b) == {top: 4.0, one: 1.0}
    a = Jet(NC, MAX_ORDER, {top: 2.0, ((0, 0), (0, MAX_ORDER - 1)): 3.0})
    assert _tuple_jet(antiderivative(a, 0)) == {((1, 0), (0, MAX_ORDER - 1)): 3.0}
    assert _tuple_jet(a.derivative(0)) == {((MAX_ORDER - 1, 0), (0, 0)): 2.0 * MAX_ORDER}
    assert _tuple_jet(a.conjugate()) == {((0, 0), (MAX_ORDER, 0)): 2.0,
                                         ((0, MAX_ORDER - 1), (0, 0)): 3.0}


@pytest.mark.parametrize("make", [
    lambda: Jet(NC, MAX_ORDER + 1), lambda: JetSpace(NC, MAX_ORDER + 1),
    lambda: Jet.constant(1.0, NC, MAX_ORDER + 1),
    lambda: Jet.variable(0, NC, MAX_ORDER + 1)])
def test_orders_past_the_packing_limit_are_rejected(make):
    with pytest.raises(ValueError, match=f"at most {MAX_ORDER}"):
        make()


def test_malformed_exponents_are_rejected():
    for key in [((1,), (0, 0)), ((0, -1), (1, 0))]:
        with pytest.raises(ValueError, match="bad exponents"):
            Jet(NC, ORDER, {key: 1.0})


def test_only_jets_reads_the_tuple_view():
    """Every module but jets.py reads the packed terms, not .coeffs."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "lkholonomy"
    readers = [f"{p.name}:{node.lineno}" for p in sorted(src.glob("*.py")) if p.name != "jets.py"
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
    assert readers == []
