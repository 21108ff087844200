"""Exact scalars: rational parsing, binomials, sparse multivariate polynomials."""

import itertools
import operator
import time
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrange_kit import scalars
from lagrange_kit.errors import DivisionByNonUnit, ParseError
from lagrange_kit.scalars import (
    MultiPoly,
    PolyRing,
    format_rational,
    int_binomial,
    multinomial,
    parse_rational,
)

fast = settings(derandomize=True, max_examples=60)


class TestRationalText:
    def test_format_integers_plainly(self):
        assert format_rational(Fraction(42)) == "42"
        assert format_rational(0) == "0"
        assert format_rational(Fraction(-6, 2)) == "-3"

    def test_format_true_fractions(self):
        assert format_rational(Fraction(-1, 3)) == "-1/3"
        assert format_rational(Fraction(22, 7)) == "22/7"

    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(" -5 ") == -5
        assert parse_rational("2.5") == Fraction(5, 2)

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError, match="position 3"):
            parse_rational("x", 3)
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_exponent_is_read_before_the_value(self):
        # Fraction alone builds 10^100000000 for the first literal
        started = time.perf_counter()
        for text in ("1e-100000000", "-2.5E+70", "1_0e-66", "0.1e66"):
            with pytest.raises(ParseError, match="exceeds 64 bits"):
                parse_rational(text, 0)
        assert time.perf_counter() - started < 1.0
        assert parse_rational("0e99999999") == 0
        assert parse_rational("25e-1") == Fraction(5, 2)
        assert parse_rational("1000e-67") == Fraction(1, 10 ** 64)
        assert parse_rational(".5e1") == 5
        with pytest.raises(ParseError):
            parse_rational("1e" + "9" * 5000)

    @fast
    @given(f=st.fractions(max_denominator=50))
    def test_round_trip(self, f):
        assert parse_rational(format_rational(f)) == f


class TestBinomials:
    def test_nonnegative_top_matches_comb(self):
        for a in range(8):
            for k in range(10):
                assert int_binomial(a, k) == comb(a, k)

    def test_negative_top(self):
        assert int_binomial(-1, 3) == -1
        assert int_binomial(-2, 2) == 3
        assert int_binomial(-3, 1) == -3

    def test_negative_bottom_is_zero(self):
        assert int_binomial(5, -1) == 0

    @fast
    @given(a=st.integers(-12, 12), k=st.integers(0, 8))
    def test_pascal_rule(self, a, k):
        assert int_binomial(a, k) == int_binomial(a - 1, k) + int_binomial(
            a - 1, k - 1
        )

    def test_multinomial(self):
        assert multinomial(5, (2, 3)) == 10
        assert multinomial(5, (2,)) == 10  # remainder 3 is a part
        assert multinomial(6, (1, 2, 3)) == 60
        assert multinomial(3, (4,)) == 0
        assert multinomial(0, ()) == 1


class TestWeightedCompositions:
    @fast
    @given(weights=st.lists(st.integers(1, 4), max_size=4), total=st.integers(-2, 9))
    def test_matches_the_product_brute_force(self, weights, total):
        # every vector with entries 0..total, kept when its weighted sum hits
        # total; product walks them in lexicographic order
        ranges = [range(max(total, 0) + 1)] * len(weights)
        want = [vec for vec in itertools.product(*ranges)
                if sum(map(operator.mul, weights, vec)) == total]
        assert list(scalars.weighted_compositions(weights, total)) == want

    def test_reads_the_weights_from_any_iterable(self):
        walk = scalars.weighted_compositions(iter((2, 1)), 3)
        assert list(walk) == [(0, 3), (1, 1)]


def _ring():
    return PolyRing("x", "y")


class TestMultiPolyArithmetic:
    def test_construction_and_zero(self):
        ring = _ring()
        assert ring.zero().is_zero()
        assert not ring.zero()
        assert ring.one().is_constant()
        assert ring.one().constant_value() == 1
        half = MultiPoly.const(ring.names, Fraction(1, 2))
        assert half.constant_value() == Fraction(1, 2)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            _ring().var("z")

    def test_ring_identities(self):
        ring = _ring()
        x, y = ring.gens()
        p = (x + y) ** 2
        assert p == x * x + 2 * x * y + y * y
        assert (x + y) * (x - y) == x ** 2 - y ** 2
        assert p - p == ring.zero()

    def test_mixed_scalar_arithmetic(self):
        x, _ = _ring().gens()
        assert (x + 1) - 1 == x
        assert 2 * x == x + x
        assert (3 - x) + (x - 3) == 0
        assert x / 2 == x * Fraction(1, 2)

    def test_division_by_nonconstant_rejected(self):
        x, y = _ring().gens()
        with pytest.raises(DivisionByNonUnit):
            x / y
        with pytest.raises(DivisionByNonUnit):
            1 / (1 + x)

    def test_eq_against_numbers(self):
        ring = _ring()
        assert MultiPoly.const(ring.names, 3) == 3
        assert MultiPoly.const(ring.names, Fraction(1, 2)) == Fraction(1, 2)
        assert ring.var("x") != 3

    def test_no_zero_terms_stored(self):
        x, y = _ring().gens()
        p = x * y - x * y + x
        assert len(p.terms) == 1

    def test_constant_hashes_as_its_value(self):
        three = MultiPoly.const(("u",), 3)
        assert three == 3
        assert len({three, 3}) == 1
        assert hash(MultiPoly.const(("u",), Fraction(-1, 2))) == hash(Fraction(-1, 2))
        assert hash(_ring().zero()) == hash(0)

    def test_constants_compare_by_value_across_variables(self):
        u3, k3 = MultiPoly.const(("u",), 3), MultiPoly.const(("k",), 3)
        assert u3 == k3
        assert len({u3, k3, 3}) == len({3, u3, k3}) == 1
        assert MultiPoly(("u",)) == MultiPoly(("k", "v"))
        assert u3 != MultiPoly.const(("k",), 4)
        assert MultiPoly.variable(("u",), "u") != MultiPoly.variable(("k", "u"), "u")
        assert MultiPoly.variable(("u",), "u") != u3

    def test_division_of_a_non_number_is_not_implemented(self):
        x = MultiPoly.variable(("x",), "x")
        for divisor in (x, MultiPoly.const(("x",), 2)):
            with pytest.raises(TypeError, match="unsupported operand"):
                "s" / divisor
        assert 1 / MultiPoly.const(("x",), 2) == Fraction(1, 2)


def _reference_product(p, q):
    """The term dict of p * q, one Fraction operation per pair of terms."""
    terms = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            tot = terms.get(e, 0) + ca * cb
            if tot:
                terms[e] = tot
            elif e in terms:
                del terms[e]
    return terms


_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
# integral, small-denominator and mixed coefficients, with zeros that the
# constructor drops
COEFFICIENT_KINDS = {
    "integral": st.integers(-6, 6),
    "fractions": st.one_of(
        st.fractions(-4, 4, max_denominator=6),
        st.fractions(-50, 50, max_denominator=10**6),
    ),
    "mixed": st.one_of(
        st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6)
    ),
}


def _polys(coefficients):
    return st.dictionaries(_exponents, coefficients, max_size=6).map(
        lambda terms: MultiPoly(("x", "y"), terms)
    )


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
@fast
@given(data=st.data())
def test_product_matches_reference(kind, data):
    p = data.draw(_polys(COEFFICIENT_KINDS[kind]))
    q = data.draw(_polys(COEFFICIENT_KINDS[kind]))
    expected = _reference_product(p, q)
    got = (p * q).terms
    assert got == expected
    assert {e: type(c) for e, c in got.items()} == {
        e: type(c) for e, c in expected.items()
    }
    assert (q * p).terms == expected


def _polys_or_constants(coefficients):
    constants = coefficients.map(lambda c: MultiPoly.const(("x", "y"), c))
    return st.one_of(_polys(coefficients), constants)


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
@fast
@given(data=st.data())
def test_truncated_product_and_power_match_truncating_after(kind, data):
    coefficients = COEFFICIENT_KINDS[kind]
    p = data.draw(_polys_or_constants(coefficients))
    q = data.draw(_polys_or_constants(coefficients))
    bound = data.draw(st.integers(-1, 7))
    k = data.draw(st.integers(-2, 4))
    got = p.mul_truncated(q, bound)
    expected = (p * q).truncate_total(bound)
    assert got.terms == expected.terms
    assert {e: type(c) for e, c in got.terms.items()} == {
        e: type(c) for e, c in expected.terms.items()
    }
    assert q.mul_truncated(p, bound) == expected
    try:
        power = (p ** k).truncate_total(bound)
    except DivisionByNonUnit:
        with pytest.raises(DivisionByNonUnit):
            p.pow_truncated(k, bound)
    else:
        assert p.pow_truncated(k, bound).terms == power.terms


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
@fast
@given(data=st.data())
def test_power_matches_chained_product(kind, data):
    # ** powers integer term lists over one denominator; the reference is
    # a chain of k products, of the inverse for k < 0
    p = data.draw(_polys_or_constants(COEFFICIENT_KINDS[kind]))
    k = data.draw(st.integers(-3, 5))
    base = p
    if k < 0:
        try:
            base = 1 / p
        except DivisionByNonUnit:
            with pytest.raises(DivisionByNonUnit):
                p ** k
            return
    expected = MultiPoly.const(("x", "y"), 1)
    for _ in range(abs(k)):
        expected = expected * base
    got = p ** k
    assert got.terms == expected.terms
    assert {type(c) for c in got.terms.values()} <= {Fraction}


def test_truncated_product_accepts_scalars():
    x, y = _ring().gens()
    p = x + y ** 3
    assert p.mul_truncated(3, 2) == 3 * x
    assert p.mul_truncated(Fraction(1, 2), 3) == p / 2
    with pytest.raises(TypeError):
        p.mul_truncated("x", 2)
    with pytest.raises(DivisionByNonUnit):
        p.pow_truncated(-1, 2)
    two = MultiPoly.const(("x", "y"), 2)
    assert two.pow_truncated(-2, 0) == (two ** -2).truncate_total(0)
    assert two.pow_truncated(-2, 0) == Fraction(1, 4)


@fast
@given(data=st.data())
def test_truncated_product_forms_only_terms_within_the_bound(data):
    # every product term is formed as tuple(map(add, ea, eb)), one add per
    # variable, so the add calls count the (ea, eb) pairs the product visits
    p = data.draw(_polys(COEFFICIENT_KINDS["mixed"]))
    q = data.draw(_polys(COEFFICIENT_KINDS["mixed"]))
    bound = data.draw(st.integers(-1, 7))
    calls = []

    def counted(u, v):
        calls.append(None)
        return u + v

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalars, "add", counted)
        p.mul_truncated(q, bound)
    within = sum(
        1 for ea in p.terms for eb in q.terms if sum(ea) + sum(eb) <= bound
    )
    assert len(calls) == 2 * within


_VARS = ("x", "y")
_UNIT = (0, 0)


def _ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ref_clean(out)


def _ref_scale(a, c):
    return _ref_clean({e: v * c for e, v in a.items()})


def _ref_mul(a, b, bound=None):
    out = {}
    for (ax, ay), ca in a.items():
        for (bx, by), cb in b.items():
            e = (ax + bx, ay + by)
            if bound is None or sum(e) <= bound:
                out[e] = out.get(e, 0) + ca * cb
    return _ref_clean(out)


def _ref_pow(a, k, bound=None):
    """a ** k truncated at ``bound``; None when k < 0 and a is no unit."""
    if k < 0:
        if set(a) != {_UNIT}:
            return None
        a, k = {_UNIT: 1 / a[_UNIT]}, -k
    out = {} if bound is not None and bound < 0 else {_UNIT: Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, a, bound)
    return out


def _ref_truncate(a, bound):
    return {e: c for e, c in a.items() if sum(e) <= bound}


def _references(coefficients):
    """Plain {exponents: Fraction} dicts, constants among them."""
    terms = st.dictionaries(_exponents, coefficients, max_size=5)
    constants = coefficients.map(lambda c: {_UNIT: c})
    return st.one_of(terms, constants).map(
        lambda d: {e: Fraction(c) for e, c in d.items() if c}
    )


def _assert_canonical(got, want):
    """got holds the terms ``want`` as Fractions, in the canonical form: int
    numerators, none zero, over a positive int denominator, content 1, the
    form the constructor gives the same terms; == and hash agree with it,
    and with its value when it is constant."""
    terms = got.terms
    assert terms == want
    assert all(type(c) is Fraction for c in terms.values())
    nums, den = got._nums, got._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums.values())
    assert gcd(den, *nums.values()) == 1
    fresh = MultiPoly(_VARS, want)
    assert (fresh._nums, fresh._den) == (nums, den)
    assert got == fresh and hash(got) == hash(fresh)
    if got.is_constant():
        value = got.constant_value()
        assert got == value and hash(got) == hash(value)


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_KINDS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_operations_match_the_fraction_reference(kind, data):
    """Every ring operation against a plain {exponents: Fraction} model."""
    rp = data.draw(_references(COEFFICIENT_KINDS[kind]))
    rq = data.draw(_references(COEFFICIENT_KINDS[kind]))
    s = data.draw(st.one_of(st.integers(-4, 4),
                            st.fractions(-3, 3, max_denominator=6)))
    bound = data.draw(st.integers(-1, 7))
    k = data.draw(st.integers(-2, 4))
    p, q = MultiPoly(_VARS, rp), MultiPoly(_VARS, rq)
    _assert_canonical(p, rp)
    cases = [
        (p + q, _ref_add(rp, rq)),
        (p + s, _ref_add(rp, {_UNIT: Fraction(s)})),
        (s + p, _ref_add(rp, {_UNIT: Fraction(s)})),
        (p - q, _ref_add(rp, _ref_scale(rq, -1))),
        ((p + q) - q, rp),
        (p - s, _ref_add(rp, {_UNIT: -Fraction(s)})),
        (s - p, _ref_add(_ref_scale(rp, -1), {_UNIT: Fraction(s)})),
        (-p, _ref_scale(rp, -1)),
        (p * s, _ref_scale(rp, s)),
        (s * p, _ref_scale(rp, s)),
        (p * q, _ref_mul(rp, rq)),
        (p.mul_truncated(q, bound), _ref_mul(rp, rq, bound)),
        (p.mul_truncated(s, bound), _ref_truncate(_ref_scale(rp, s), bound)),
        (p.truncate_total(bound), _ref_truncate(rp, bound)),
    ]
    powers = ((lambda: p ** k, None), (lambda: p.pow_truncated(k, bound), bound))
    for power, bounded in powers:
        want = _ref_pow(rp, k, bounded)
        if want is None:
            with pytest.raises(DivisionByNonUnit):
                power()
        else:
            cases.append((power(), want))
    for divisor in (s, MultiPoly.const(_VARS, s)):
        if s:
            cases.append((p / divisor, _ref_scale(rp, 1 / Fraction(s))))
        else:
            with pytest.raises(DivisionByNonUnit):
                p / divisor
    if set(rp) == {_UNIT}:
        cases.append((s / p, _ref_scale({_UNIT: Fraction(s)}, 1 / rp[_UNIT])))
    for got, want in cases:
        _assert_canonical(got, want)
    for a, ra in cases:
        for b, rb in cases:
            assert (a == b) == (ra == rb)
            if a == b:
                assert hash(a) == hash(b)


def test_ring_operations_build_no_fraction():
    """The ring operations work on the stored integers: with the operands
    built, not one Fraction is constructed until ``terms`` is read."""
    x, y = _ring().gens()
    p = Fraction(1, 2) * x ** 2 - Fraction(2, 3) * x * y + 3
    q = Fraction(5, 4) * y - 1
    two, half = MultiPoly.const(_VARS, 2), Fraction(1, 2)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        results = [
            p + q, p + 1, half + p, p - q, 1 - p, -p, p * q, 3 * p, p * half,
            p.mul_truncated(q, 2), p.mul_truncated(half, 1), p ** 3,
            p.pow_truncated(4, 3), two ** -3, two.pow_truncated(-2, 0),
            p / 3, p / half, p / two, 1 / two, half / two, p.truncate_total(1),
        ]
        assert p != q and p == p + 0 and two == 2 and two != half
        assert len({hash(r) for r in results if not r.is_constant()}) > 1
    assert built == []
    assert results[-2].terms == {_UNIT: Fraction(1, 4)}


class TestMultiPolyStructure:
    def test_degrees(self):
        x, y = _ring().gens()
        p = x ** 3 * y + y ** 2 + 1
        assert p.min_total_degree() == 0
        assert p.degree_in("x") == 3
        assert p.degree_in("y") == 2

    def test_coefficient_lookup(self):
        x, y = _ring().gens()
        p = 2 * x * y ** 2 - Fraction(1, 3)
        assert p.coefficient((1, 2)) == 2
        assert p.coefficient((0, 0)) == Fraction(-1, 3)
        assert p.coefficient((5, 5)) == 0

    def test_truncate_total(self):
        x, y = _ring().gens()
        p = 1 + x + x * y + x ** 2 * y
        assert p.truncate_total(2) == 1 + x + x * y

    def test_partial_subs(self):
        ring = PolyRing("x", "y")
        x, y = ring.gens()
        p = x ** 2 + x * y + 3
        q = p.subs({"y": 2})
        assert q == x ** 2 + 2 * x + 3
        assert q.degree_in("y") == 0

    def test_subs_keeps_variable_tuple(self):
        ring = PolyRing("x", "y")
        x, y = ring.gens()
        q = (x * y).subs({"x": Fraction(1, 2)})
        assert q.vars == ("x", "y")
        assert q == y / 2

    def test_evaluate(self):
        x, y = _ring().gens()
        p = x ** 2 - y
        assert p.subs({"x": 3, "y": 4}).constant_value() == 5
        assert p.subs({"x": Fraction(1, 2), "y": 0}).constant_value() == Fraction(1, 4)

    def test_str_is_readable(self):
        x, y = _ring().gens()
        text = str(x ** 2 - y + 1)
        assert "x" in text and "y" in text


@fast
@given(
    ax=st.integers(-3, 3),
    ay=st.integers(-3, 3),
    bx=st.integers(-3, 3),
    by=st.integers(-3, 3),
    px=st.integers(-4, 4),
    py=st.integers(-4, 4),
)
def test_evaluation_is_a_ring_morphism(ax, ay, bx, by, px, py):
    x, y = _ring().gens()
    p = ax * x + ay * y + 1
    q = bx * x ** 2 + by * y
    point = {"x": px, "y": py}

    def at(poly):
        return poly.subs(point).constant_value()

    assert at(p * q) == at(p) * at(q)
    assert at(p + q) == at(p) + at(q)
    assert at(p ** 3) == at(p) ** 3
