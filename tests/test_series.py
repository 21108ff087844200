"""Truncated power/Laurent series arithmetic: axioms, calculus, codecs."""

import operator
from fractions import Fraction
from math import factorial, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagrange_kit import series
from lagrange_kit.errors import (
    BadConstantTerm,
    DivisionByNonUnit,
    DivisionByZeroSeries,
    InadmissibleComposition,
    NonIntegrableResidue,
    NotReversible,
    OrderMismatch,
    OutOfPrecision,
)
from lagrange_kit.cli import _series_from_literal
from lagrange_kit.scalars import MultiPoly, PolyRing, scalar_inverse
from lagrange_kit.series import (
    LaurentSeries,
    PowerSeries,
    _integer_form,
    _quotient,
    compose,
)

ORDER = 9

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
power_series = st.lists(rationals, min_size=0, max_size=ORDER).map(
    lambda cs: PowerSeries(cs, ORDER)
)
laurent_series = st.tuples(
    st.lists(rationals, min_size=0, max_size=ORDER + 3),
    st.integers(min_value=-3, max_value=2),
).map(lambda t: LaurentSeries(t[0][: ORDER - t[1]], t[1], ORDER))


def _ints_where_integral(s):
    """The same series with its integral coefficients stored as ints."""
    coeffs = [c.numerator if c.denominator == 1 else c for c in s.coeffs]
    if isinstance(s, PowerSeries):
        return PowerSeries(coeffs, ORDER)
    return LaurentSeries(coeffs, s.min_exponent, ORDER)


any_series = st.one_of(power_series, laurent_series)
mixed_series = st.one_of(any_series, any_series.map(_ints_where_integral))
# both operands of a quotient, with min_exponent up to 3 so that divisors of
# positive valuation occur
_quotient_series = st.one_of(
    power_series,
    st.tuples(
        st.lists(rationals, min_size=0, max_size=ORDER + 3),
        st.integers(min_value=-3, max_value=3),
    ).map(lambda t: LaurentSeries(t[0][: ORDER - t[1]], t[1], ORDER)),
)
quotient_operands = st.one_of(
    _quotient_series, _quotient_series.map(_ints_where_integral)
)
_ring = PolyRing("a", "b")
_a, _b = _ring.gens()

_ints = st.integers(min_value=-6, max_value=6)
_wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)
# each kind of entry, with plenty of zeros
KERNEL_SCALARS = {
    "int-only": st.one_of(st.just(0), _ints),
    "fractions": st.one_of(st.just(Fraction(0)), rationals, _wide_fractions),
    "mixed": st.one_of(st.just(0), _ints, rationals, _wide_fractions),
    "multipoly": st.one_of(
        st.just(0),
        _ints,
        rationals,
        st.tuples(rationals, rationals, rationals).map(
            lambda t: t[0] * _a + t[1] * _b * _b + t[2]
        ),
    ),
}
kernel_kinds = pytest.mark.parametrize("kind", sorted(KERNEL_SCALARS))


@st.composite
def _windows(draw, scalars):
    """A PowerSeries or LaurentSeries of order ORDER whose window starts at
    x^m for m in -3 .. 3 (a power series for m >= 0 half of the time)."""
    m = draw(st.integers(min_value=-3, max_value=3))
    entries = draw(st.lists(scalars, max_size=ORDER - m))
    if m >= 0 and draw(st.booleans()):
        return PowerSeries([0] * m + entries, ORDER)
    return LaurentSeries(entries, m, ORDER)


def _repeated_product(s, k):
    """s ** k by series products alone, one / s first for k < 0: a chain
    of k products.  On a window with negative exponents the top entries
    are filled as if the operands were polynomials, so the order of the
    products matters; there the chain squares and multiplies as ``**``
    does."""
    if isinstance(s, PowerSeries):
        one = PowerSeries([1], ORDER)
    else:
        one = LaurentSeries([1], 0, ORDER)
    if k < 0:
        s, k = one / s, -k
    result = one
    if s.min_exponent >= 0:
        for _ in range(k):
            result = result * s
        return result
    while k:
        if k & 1:
            result = result * s
        k >>= 1
        if k:
            s = s * s
    return result


class TestPowerSeriesBasics:
    def test_padding_and_coeff(self):
        s = PowerSeries([1, 2], 5)
        assert s.coeffs == (1, 2, 0, 0, 0)
        assert s.coeff(4) == 0
        assert s.coeff(-3) == 0
        with pytest.raises(OutOfPrecision):
            s.coeff(5)

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError):
            PowerSeries([1, 2, 3], 2)

    def test_valuation(self):
        assert PowerSeries([0, 0, 5], 4).valuation() == 2
        assert PowerSeries([0], 4).valuation() is None

    def test_equality_needs_same_order(self):
        with pytest.raises(OrderMismatch):
            PowerSeries([1], 3) == PowerSeries([1], 4)

    def test_mixed_order_arithmetic_rejected(self):
        with pytest.raises(OrderMismatch):
            PowerSeries([1], 3) + PowerSeries([1], 4)

    def test_truncated(self):
        s = PowerSeries([1, 2, 3, 4], 4)
        assert s.truncated(2) == PowerSeries([1, 2], 2)
        with pytest.raises(ValueError):
            s.truncated(5)

    def test_shift_to_laurent(self):
        s = PowerSeries([1, 2, 3], 3).shift(-2)
        assert isinstance(s, LaurentSeries)
        assert s.min_exponent == -2
        assert s.coeff(-2) == 1
        assert s.coeff(0) == 3


fast = settings(derandomize=True, max_examples=60)


class TestRingAxioms:
    @fast
    @given(a=power_series, b=power_series, c=power_series)
    def test_add_mul_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @fast
    @given(a=mixed_series, b=mixed_series)
    @example(
        a=PowerSeries([1, Fraction(1, 2), 0, -3], ORDER),
        b=LaurentSeries([2, 0, Fraction(-2, 3), 0, 5], -3, ORDER),
    )
    @example(
        a=LaurentSeries([Fraction(3, 4), 0, 1, 0, Fraction(-5, 2)], -2, ORDER),
        b=LaurentSeries([Fraction(1, 6), 4, 0, Fraction(2, 9)], -1, ORDER),
    )
    @example(
        a=PowerSeries([_ring.one(), _a, 0, _a * _a - 2], ORDER),
        b=PowerSeries([0, Fraction(1, 2), _b, 0, _a + 3 * _b], ORDER),
    )
    def test_product_is_the_schoolbook_sum(self, a, b):
        low_a = getattr(a, "min_exponent", 0)
        low_b = getattr(b, "min_exponent", 0)
        product = a * b
        for n in range(low_a + low_b, ORDER):
            expected = sum(
                a.coeff(i) * b.coeff(n - i)
                for i in range(low_a, n - low_b + 1)
                if i < ORDER and n - i < ORDER
            )
            assert product.coeff(n) == expected

    @fast
    @given(a=power_series)
    def test_units(self, a):
        zero = PowerSeries([0], ORDER)
        one = PowerSeries([1], ORDER)
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a + (-a) == zero

    @fast
    @given(a=power_series, b=power_series)
    def test_division_inverts_multiplication(self, b, a):
        if not b.constant_term:
            with pytest.raises(DivisionByNonUnit):
                a / b
        else:
            assert (a / b) * b == a

    @fast
    @given(a=quotient_operands, b=quotient_operands)
    @example(
        a=PowerSeries([1], ORDER),
        b=LaurentSeries([1] * (ORDER - 1), 1, ORDER),
    )
    @example(
        a=LaurentSeries([Fraction(3, 4), 0, 1, 0, Fraction(-5, 2)], -2, ORDER),
        b=LaurentSeries([2, 0, Fraction(-2, 3), 0, 5], 3, ORDER),
    )
    @example(
        a=PowerSeries([0, Fraction(1, 2), 0, -3], ORDER),
        b=PowerSeries([Fraction(2, 3), 0, 1, Fraction(-1, 5)], ORDER),
    )
    @example(a=PowerSeries([1, 2], ORDER), b=PowerSeries([0, 1], ORDER))
    def test_quotient_is_the_triangular_recurrence(self, a, b):
        if isinstance(a, PowerSeries) and isinstance(b, PowerSeries):
            if not b.constant_term:
                with pytest.raises(DivisionByNonUnit):
                    a / b
                return
            low_a = low_b = 0
        else:
            if b.is_zero():
                with pytest.raises(DivisionByZeroSeries):
                    a / b
                return
            a, b = (
                s.to_laurent() if isinstance(s, PowerSeries) else s for s in (a, b)
            )
            low_a, low_b = a.min_exponent, b.min_exponent

        def read(s, n):
            # coefficients past the stored window read as zero
            return s.coeff(n) if n < ORDER else 0

        start = low_a - low_b
        q = []
        for t in range(ORDER - start):
            acc = read(a, low_a + t) - sum(
                q[i] * read(b, low_b + t - i) for i in range(t)
            )
            q.append(Fraction(acc) / read(b, low_b))
        quotient = a / b
        for n in range(-6, ORDER):
            assert quotient.coeff(n) == (q[n - start] if n >= start else 0)

    @fast
    @given(
        tail=st.lists(rationals, min_size=0, max_size=ORDER - 1),
        p=st.integers(min_value=-3, max_value=3),
        q=st.integers(min_value=2, max_value=4),
    )
    def test_fractional_power_raised_back(self, tail, p, q):
        s = PowerSeries([1] + tail, ORDER)
        assert s.pow(Fraction(p, q)) ** q == s ** p

    @fast
    @given(a=any_series)
    @example(a=PowerSeries([0], ORDER))
    @example(a=LaurentSeries([], 0, ORDER))
    @example(a=PowerSeries([0] * (ORDER - 1) + [Fraction(1, 2)], ORDER))
    @example(a=PowerSeries([0, _a], ORDER))
    def test_false_exactly_when_zero(self, a):
        low = getattr(a, "min_exponent", 0)
        assert bool(a) == any(a.coeff(n) != 0 for n in range(low, ORDER))

    @settings(derandomize=True, max_examples=300)
    @given(
        data=st.data(),
        kind=st.sampled_from(["int-only", "fractions", "mixed"]),
        k=st.integers(min_value=-5, max_value=9),
    )
    def test_integer_powers_match_repeated_product(self, data, kind, k):
        a = data.draw(_windows(KERNEL_SCALARS[kind]))
        try:
            expected = _repeated_product(a, k)
        except (DivisionByNonUnit, DivisionByZeroSeries) as exc:
            with pytest.raises(type(exc)):
                a ** k
            return
        got = a ** k
        assert type(got) is type(expected)
        assert got.min_exponent == expected.min_exponent
        _same_entries(got.coeffs, expected.coeffs)


class TestCalculus:
    @fast
    @given(a=power_series)
    def test_derivative_of_integral(self, a):
        assert a.integral().derivative().truncated(ORDER - 1) == a.truncated(
            ORDER - 1
        )

    @fast
    @given(a=power_series, b=power_series)
    def test_derivative_is_a_derivation(self, a, b):
        lhs = (a * b).derivative().truncated(ORDER - 1)
        rhs = (a.derivative() * b + a * b.derivative()).truncated(ORDER - 1)
        assert lhs == rhs

    @fast
    @given(a=power_series)
    def test_exp_log_round_trip(self, a):
        f = a - a.constant_term  # force zero constant term
        e = f.exp()
        assert e.constant_term == 1
        assert e.log() == f

    @fast
    @given(a=power_series)
    def test_exp_splits_sums(self, a):
        f = a - a.constant_term
        g = (2 * f).exp()
        assert g == f.exp() * f.exp()

    def test_exp_requires_zero_constant(self):
        with pytest.raises(BadConstantTerm):
            PowerSeries([1, 1], 4).exp()

    def test_log_requires_unit_one(self):
        with pytest.raises(BadConstantTerm):
            PowerSeries([2, 1], 4).log()

    def test_exponential_series_values(self):
        e = PowerSeries([0, 1], 8).exp()
        assert e.coeffs == tuple(Fraction(1, factorial(n)) for n in range(8))


class TestFractionalPowers:
    def test_binomial_square_root(self):
        s = PowerSeries([1, 2, 1], 6).pow(Fraction(1, 2))
        assert s == PowerSeries([1, 1], 6)

    def test_inverse_square_root_of_1_minus_4x(self):
        # coefficients of (1-4x)^(-1/2) are the central binomials
        from math import comb

        s = PowerSeries([1, -4], 10).pow(Fraction(-1, 2))
        assert s.coeffs == tuple(comb(2 * n, n) for n in range(10))

    def test_rational_power_requires_unit_one(self):
        with pytest.raises(BadConstantTerm):
            PowerSeries([4, 1], 4).pow(Fraction(1, 2))

    def test_negative_integer_power(self):
        geom = PowerSeries([1, -1], 8) ** (-1)
        assert geom == PowerSeries([1] * 8, 8)


def _quotient_list(a, b, inv0, length):
    """``_quotient`` of the coefficient lists ``a`` and ``b`` as a list; on
    the rational path every entry is a Fraction, the zero ones too."""
    q, den = _quotient(_integer_form(a), _integer_form(b), inv0, length)
    return q if den is None else [Fraction(c, den) for c in q]


def _reference_divide(a, b, inv0, length):
    """The quotient recurrence of ``_quotient`` one scalar operation at a
    time, skipping zero terms."""
    q = []
    for m in range(length):
        acc = a[m] if m < len(a) else 0
        for j in range(1, min(m, len(b) - 1) + 1):
            x, y = q[m - j], b[j]
            if x and y:
                acc = acc - x * y
        q.append(acc * inv0)
    return q


def _reference_exp(a):
    """exp by m y_m = sum of k a_k y_(m-k), one scalar operation at a time."""
    y = [1]
    for m in range(1, len(a)):
        acc = 0
        for k in range(1, m + 1):
            if a[k] and y[m - k]:
                acc = acc + (k * a[k]) * y[m - k]
        y.append(Fraction(acc, m) if isinstance(acc, int) else acc / m)
    return y


def _same_entries(got, expected):
    assert list(got) == list(expected)
    assert [type(c) for c in got] == [type(c) for c in expected]


class TestKernels:
    """``_quotient`` and ``exp`` against plain scalar reference loops: the
    same values and the same type for every coefficient."""

    @kernel_kinds
    @fast
    @given(data=st.data(), length=st.integers(min_value=1, max_value=ORDER + 2))
    def test_divide_matches_reference(self, kind, data, length):
        scalars = KERNEL_SCALARS[kind]
        a = data.draw(st.lists(scalars, max_size=ORDER))
        if kind == "multipoly":
            b0 = MultiPoly.const(_ring.names, data.draw(rationals.filter(bool)))
        else:
            b0 = data.draw(scalars.filter(bool))
        b = [b0] + data.draw(st.lists(scalars, max_size=ORDER))
        inv0 = scalar_inverse(b[0])
        _same_entries(
            _quotient_list(a, b, inv0, length), _reference_divide(a, b, inv0, length)
        )

    @fast
    @given(
        a=st.lists(_ints, max_size=ORDER),
        b=st.lists(_ints, max_size=ORDER),
        length=st.integers(min_value=1, max_value=ORDER + 2),
    )
    def test_divide_by_an_int_inverse_keeps_ints(self, a, b, length):
        b = [1] + b
        _same_entries(
            _quotient_list(a, b, 1, length), _reference_divide(a, b, 1, length)
        )

    @kernel_kinds
    @fast
    @given(data=st.data())
    def test_exp_matches_reference(self, kind, data):
        a = [0] + data.draw(st.lists(KERNEL_SCALARS[kind], max_size=ORDER - 1))
        a += [0] * (ORDER - len(a))
        e = PowerSeries(a, ORDER).exp()
        expected = _reference_exp(a)
        # the values of the reference, with the types of the rule for quotients
        _obeys_type_rule(e, (0, expected), _join(_kind(a), "rational"))
        if _kind(a) == "poly":
            # the rule leaves MultiPoly entries to the kernel, so the reference
            # pins their types; x^0 reads Fraction(1), the kernel's inv0
            assert (e.coeffs[0], type(e.coeffs[0])) == (1, Fraction)
            _same_entries(e.coeffs[1:], expected[1:])

    @kernel_kinds
    @fast
    @given(
        data=st.data(),
        shifts=st.tuples(st.integers(-3, 2), st.integers(-3, 2)),
        n=st.integers(min_value=-7, max_value=ORDER - 1),
    )
    def test_product_coeff_reads_the_product(self, kind, data, shifts, n):
        scalars = KERNEL_SCALARS[kind]
        a, b = (
            LaurentSeries(
                data.draw(st.lists(scalars, max_size=ORDER + 3))[: ORDER - m],
                m,
                ORDER,
            )
            for m in shifts
        )
        if data.draw(st.booleans()) and b.min_exponent >= 0:
            b = _as_power(b)
        got, expected = a.product_coeff(b, n), (a * b).coeff(n)
        assert got == expected
        if kind != "multipoly":
            assert type(got) is type(expected)

    def test_product_coeff_types_on_the_fraction_path(self):
        a = LaurentSeries([1, Fraction(1, 2)], -1, 4)
        b = PowerSeries([2, -1], 4)
        # int terms alone still read as a Fraction, a cancelled sum as the int 0
        assert [a.product_coeff(b, n) for n in (-1, 0)] == [2, 0]
        assert [type(a.product_coeff(b, n)) for n in (-1, 0)] == [Fraction, int]

    def test_product_coeff_rejects_a_non_series(self):
        a = LaurentSeries([1, 2], -1, 4)
        for other in (None, 3, Fraction(1, 2), [1, 2]):
            with pytest.raises(TypeError):
                a.product_coeff(other, 0)

    def test_large_denominators_at_order_150(self):
        n = 150
        t = PowerSeries([0, 1], n)
        e = t.exp()
        assert e == _series_from_literal("exp", n)
        assert 1 / e == (-t).exp()
        assert e.log() == t


class TestReversion:
    @fast
    @given(
        tail=st.lists(rationals, min_size=0, max_size=ORDER - 2),
        lead=st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
    )
    def test_round_trip(self, tail, lead):
        f = PowerSeries([0, lead] + tail, ORDER)
        g = f.reversion()
        x = PowerSeries([0, 1], ORDER)
        assert compose(f, g) == x
        assert compose(g, f) == x

    def test_needs_valuation_one(self):
        with pytest.raises(NotReversible):
            PowerSeries([0, 0, 1], 5).reversion()
        with pytest.raises(NotReversible):
            PowerSeries([1, 1], 5).reversion()

    def test_catalan_pair(self):
        # the inverse of x - x^2 is x c(x)
        order = 12
        g = PowerSeries([0, 1, -1], order).reversion()
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
        assert g.coeffs == tuple([0] + catalan)

    def test_tree_function_pair(self):
        # the inverse of x e^(-x) is the rooted-tree series
        order = 10
        x = PowerSeries([0, 1], order)
        g = (x * (-x).exp()).reversion()
        want = [0] + [Fraction(n ** (n - 1), factorial(n)) for n in range(1, order)]
        assert g == PowerSeries(want, order)


class TestLaurent:
    def test_canonical_leading_term(self):
        s = LaurentSeries([0, 0, 3, 1], -2, 4)
        assert s.min_exponent == 0
        assert s.coeff(0) == 3

    def test_zero_normalization(self):
        s = LaurentSeries([0, 0], -1, 3)
        assert s.is_zero()
        assert s.min_exponent == 0
        assert s.valuation() is None

    def test_residue_and_shift(self):
        s = LaurentSeries([7, 1, 2], -1, 4)
        assert s.residue() == 7
        assert s.shift(1).residue() == 0
        assert s.shift(-1).coeff(-2) == 7

    def test_derivative_kills_residue(self):
        s = LaurentSeries([5, 4, 3, 2, 1], -2, 5)
        assert s.derivative().residue() == 0

    def test_integral_of_derivative(self):
        s = LaurentSeries([5, 4, 0, 2, 1], -2, 5)
        back = s.derivative().integral()
        # the constant term is lost by differentiation
        assert back.coeff(0) == 0
        for n in range(-2, 4):
            if n != 0:
                assert back.coeff(n) == s.coeff(n)

    def test_integral_needs_zero_residue(self):
        with pytest.raises(NonIntegrableResidue):
            LaurentSeries([1], -1, 3).integral()

    def test_negative_power_of_x_times_unit(self):
        x_inv = LaurentSeries([1], -1, 4)
        assert x_inv.residue() == 1
        assert (x_inv ** 2).coeff(-2) == 1
        product = x_inv * x_inv.shift(2)  # x^-1 * x = 1
        assert product.coeff(0) == 1
        assert product.residue() == 0

    def test_division(self):
        a = LaurentSeries([1, 1], -1, 5)
        b = LaurentSeries([1, -1], 0, 5)
        assert (a / b) * b == a

    def test_division_by_zero_series(self):
        with pytest.raises(DivisionByZeroSeries):
            LaurentSeries([1], 0, 3) / LaurentSeries([0], 0, 3)

    def test_valuation_overflow_collapses_to_zero(self):
        tiny = LaurentSeries([1], 3, 4)  # x^3 at order 4
        assert (tiny * tiny).is_zero()
        past = tiny.shift(2)
        assert past.is_zero()
        assert (past.order, past.min_exponent) == (4, 0)

    def test_power_series_round_trip(self):
        p = PowerSeries([0, 1, 2], 4)
        assert _as_power(p.to_laurent()) == p


def _as_laurent(v):
    return v.to_laurent() if isinstance(v, PowerSeries) else v


def _as_power(v):
    """The PowerSeries of the coefficients of a series with no negative
    exponent."""
    return PowerSeries([v.coeff(n) for n in range(v.order)], v.order)


# the ring members written once, for both series types
SHARED_MEMBERS = (
    "coeff", "valuation", "__bool__", "is_zero", "__neg__", "__add__",
    "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__pow__", "__eq__", "__hash__", "__str__", "__repr__",
)


class TestMixedTypes:
    def test_both_types_share_one_base(self):
        assert PowerSeries.__bases__ == LaurentSeries.__bases__
        (base,) = PowerSeries.__bases__
        assert base is not object
        for name in SHARED_MEMBERS:
            assert name in vars(base)
            assert name not in vars(PowerSeries)
            assert name not in vars(LaurentSeries)
        assert not hasattr(LaurentSeries, "_promote")

    @settings(derandomize=True, max_examples=300)
    @given(
        data=st.data(),
        op=st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
        swap=st.booleans(),
    )
    def test_laurent_exactly_when_an_operand_is_laurent(self, data, op, swap):
        a = data.draw(mixed_series)
        b = data.draw(st.one_of(mixed_series, rationals, rationals.map(int)))
        if swap:
            a, b = b, a
        try:
            got = op(a, b)
        except (DivisionByNonUnit, DivisionByZeroSeries, ZeroDivisionError):
            return  # undefined for these operands
        laurent = isinstance(a, LaurentSeries) or isinstance(b, LaurentSeries)
        assert type(got) is (LaurentSeries if laurent else PowerSeries)
        expected = op(_as_laurent(a), _as_laurent(b))
        assert [got.coeff(n) for n in range(-2 * ORDER, ORDER)] == [
            expected.coeff(n) for n in range(-2 * ORDER, ORDER)
        ]

    def test_hash_agrees_with_equality_across_types(self):
        p = PowerSeries([0, 1, 2], 4)
        assert p == p.to_laurent()
        assert len({p, p.to_laurent()}) == 1
        assert hash(PowerSeries([Fraction(2), 0, Fraction(1, 2)], 4)) == hash(
            PowerSeries([2, 0, Fraction(1, 2)], 4)
        )
        assert hash(PowerSeries([Fraction(0)], 4)) == hash(LaurentSeries([], 0, 4))
        # a constant MultiPoly coefficient equals and hashes as its value
        three = PowerSeries([MultiPoly.const(("k",), 3), 1], 2)
        assert three == PowerSeries([3, 1], 2)
        assert len({three, PowerSeries([3, 1], 2)}) == 1
        half = PowerSeries([MultiPoly.const(("k",), Fraction(1, 2)), 1], 2)
        assert hash(half) == hash(PowerSeries([Fraction(1, 2), 1], 2))

    @fast
    @given(a=any_series)
    def test_equal_series_hash_equal(self, a):
        same = [a, _ints_where_integral(a), _as_laurent(a)]
        if (a.valuation() or 0) >= 0:
            same.append(_as_power(a))
        for b in same:
            assert b == a
            assert hash(b) == hash(a)


def _reference_compose(outer, inner):
    """Horner's rule in inner, one series product per outer coefficient
    below the degree; a Laurent outer adds its negative powers one power
    of 1/inner at a time."""
    n = outer.order
    if isinstance(outer, LaurentSeries):
        pos = PowerSeries([outer.coeff(k) for k in range(n)], n)
        result = _reference_compose(pos, inner).to_laurent()
        inv = LaurentSeries([1], 0, n) / inner.to_laurent()
        p = inv
        for k in range(-1, outer.min_exponent - 1, -1):
            c = outer.coeff(k)
            if c:
                result = result + p * c
            p = p * inv
        return result
    if not outer:
        return PowerSeries([0], n)
    top = max(i for i, c in enumerate(outer.coeffs) if c)
    acc = PowerSeries([outer.coeffs[top]], n)
    for k in range(top - 1, -1, -1):
        acc = acc * inner
        c = outer.coeffs[k]
        if c:
            acc = acc + c
    return acc


def _nonzero(scalars):
    return scalars.map(lambda c: c or 1)


@st.composite
def _outer_coeffs(draw, scalars):
    """Coefficients of an outer polynomial of every degree below ORDER,
    dense (every coefficient nonzero) or sparse (about one in four)."""
    degree = draw(st.integers(min_value=0, max_value=ORDER - 1))
    nonzero = _nonzero(scalars)
    if draw(st.booleans()):
        body = [draw(nonzero) for _ in range(degree)]
    else:
        body = [
            draw(scalars) if draw(st.integers(0, 3)) == 0 else 0
            for _ in range(degree)
        ]
    return body + [draw(nonzero)]


class TestCompose:
    @kernel_kinds
    @fast
    @given(data=st.data())
    def test_matches_horner(self, kind, data):
        scalars = KERNEL_SCALARS[kind]
        outer = PowerSeries(data.draw(_outer_coeffs(scalars)), ORDER)
        tail = data.draw(st.lists(scalars, max_size=ORDER - 2))
        inner = PowerSeries([0, data.draw(_nonzero(scalars))] + tail, ORDER)
        got, expected = compose(outer, inner), _reference_compose(outer, inner)
        if kind == "multipoly":
            assert got == expected
        else:
            # rational coefficients keep Horner's types, too
            _same_entries(got.coeffs, expected.coeffs)

    @fast
    @given(
        outer=laurent_series,
        tail=st.lists(rationals, max_size=ORDER - 2),
        lead=rationals.filter(bool),
    )
    def test_laurent_outer_matches_horner(self, outer, tail, lead):
        inner = PowerSeries([0, lead] + tail, ORDER)
        assert compose(outer, inner) == _reference_compose(outer, inner)

    @pytest.mark.parametrize("order", [9, 200])
    def test_never_more_products_than_horner(self, order, monkeypatch):
        # every series product in compose runs the kernel loop ``_product``
        calls = []
        product = series._product

        def counted(a, b_terms, length):
            calls.append(length)
            return product(a, b_terms, length)

        monkeypatch.setattr(series, "_product", counted)
        inner = PowerSeries([0, 1, 1], order)
        for degree in range(order):
            calls.clear()
            compose(PowerSeries([1] * (degree + 1), order), inner)
            s = isqrt(degree) + 1
            blocks = -(-(degree + 1) // s)
            assert len(calls) == max(s - 2, 0) + (degree >= s) + blocks - 1
            assert len(calls) <= degree  # Horner's rule takes degree products
        assert len(calls) == (27 if order == 200 else 4)

    def test_requires_zero_constant_inner(self):
        outer = PowerSeries([1, 1], 4)
        inner = PowerSeries([1, 1], 4)
        with pytest.raises(InadmissibleComposition):
            compose(outer, inner)

    def test_laurent_outer_needs_valuation_one(self):
        outer = LaurentSeries([1], -1, 5)
        with pytest.raises(InadmissibleComposition):
            compose(outer, PowerSeries([0, 0, 1], 5))

    def test_laurent_outer_composition(self):
        # 1/t at t = x/(1-x) gives (1-x)/x
        outer = LaurentSeries([1], -1, 6)
        inner = PowerSeries([0] + [1] * 5, 6)
        got = compose(outer, inner)
        assert got.coeff(-1) == 1
        assert got.coeff(0) == -1
        # reliable window shrinks by one order per negative exponent
        assert all(got.coeff(n) == 0 for n in range(1, 4))

    def test_associativity_with_solve(self):
        order = 8
        x = PowerSeries([0, 1], order)
        f = (x * x.exp()).truncated(order)
        g = x * PowerSeries([1, 1], order)
        lhs = compose(compose(f, g), g)
        rhs = compose(f, compose(g, g))
        assert lhs == rhs


# -- the type rule, against a naive Fraction reference ---------------------------
#
# A naive series is (low, values): its window [low, ORDER) as Fractions or
# MultiPoly values, with every operation done one scalar at a time.  The type
# rule says which type each coefficient reads as: a "poly" result (a MultiPoly
# operand) keeps native arithmetic, so only its values are compared; a
# "rational" result (a Fraction operand, or a quotient) reads a Fraction for
# every nonzero entry and the int 0 for every zero one; an "int" result, and
# a result that is zero throughout, reads ints.

_KIND_ORDER = ("int", "rational", "poly")


def _kind(entries):
    """The kind of a list of entries: "poly" with a MultiPoly among them,
    "rational" with a Fraction and a nonzero entry, otherwise "int"."""
    if any(isinstance(c, MultiPoly) for c in entries):
        return "poly"
    if any(type(c) is Fraction for c in entries) and any(entries):
        return "rational"
    return "int"


def _join(*kinds):
    return max(kinds, key=_KIND_ORDER.index)


def _naive(s):
    return s.min_exponent, [
        c if isinstance(c, MultiPoly) else Fraction(c) for c in s.coeffs
    ]


def _value(x, n):
    low, values = x
    return values[n - low] if 0 <= n - low < len(values) else 0


def _naive_add(x, y):
    low = min(x[0], y[0])
    return low, [_value(x, n) + _value(y, n) for n in range(low, ORDER)]


def _naive_mul(x, y):
    (la, a), (lb, b) = x, y
    out = [0] * max(ORDER - la - lb, 0)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            if i + j < len(out) and p and q:
                out[i + j] += p * q
    return la + lb, out


def _naive_div(x, y):
    """The quotient recurrence on y's leading entry; entries past either
    window read as zero, and zero over a series is zero."""
    if not any(x[1]):
        return 0, []
    lb = next(n for n in range(y[0], ORDER) if _value(y, n))
    low = x[0] - lb
    q = []
    for t in range(ORDER - low):
        acc = _value(x, x[0] + t)
        for i in range(t):
            acc -= q[i] * _value(y, lb + t - i)
        q.append(acc / _value(y, lb))
    return low, q


def _naive_pow(x, k):
    one = (0, [Fraction(1)])
    if k < 0:
        x, k = _naive_div(one, x), -k
    result = one
    while k:
        if k & 1:
            result = _naive_mul(result, x)
        k >>= 1
        if k:
            x = _naive_mul(x, x)
    return result


def _naive_compose(outer, inner):
    values = outer[1]
    top = max((i for i, c in enumerate(values) if c), default=0)
    acc = (0, [values[top]])
    for k in range(top - 1, -1, -1):
        acc = _naive_mul(acc, inner)
        if values[k]:
            acc = _naive_add(acc, (0, [values[k]]))
    return acc


def _naive_exp(a):
    y = [Fraction(1)]
    for m in range(1, ORDER):
        y.append(sum((k * a[k] * y[m - k] for k in range(1, m + 1)), Fraction(0)) / m)
    return 0, y


def _naive_log(a):
    derivative = (0, [(i + 1) * c for i, c in enumerate(a[1][1:])] + [0])
    q = _naive_div(derivative, a)
    return 0, [Fraction(0)] + [_value(q, i) / Fraction(i + 1) for i in range(ORDER - 1)]


def _naive_reversion(f):
    """g with f(g) = x, one coefficient at a time: [x^n] f(g) is f_1 g_n
    plus terms in g_1 .. g_(n-1)."""
    g = [Fraction(0), 1 / f[1][1]] + [Fraction(0)] * (ORDER - 2)
    for n in range(2, ORDER):
        g[n] = -_value(_naive_compose(f, (0, g)), n) / f[1][1]
    return 0, g


def _rebuilt(s):
    if isinstance(s, PowerSeries):
        return PowerSeries(s.coeffs, ORDER)
    return LaurentSeries(s.coeffs, s.min_exponent, ORDER)


def _obeys_type_rule(got, expected, kind):
    """got reads the values of the naive series ``expected`` with the types
    of ``kind``, and equals and hashes as the series rebuilt from its
    coefficients."""
    exponents = range(-2 * ORDER, ORDER)
    have = [got.coeff(n) for n in exponents]
    want = [_value(expected, n) for n in exponents]
    assert have == want
    if kind == "rational" and not any(want):
        kind = "int"
    if kind == "int":
        assert all(type(c) is int for c in have)
    elif kind == "rational":
        assert [type(c) for c in have] == [Fraction if v else int for v in want]
    # the whole window reads as each coefficient alone
    stored = [got.coeff(n) for n in range(got.min_exponent, ORDER)]
    assert [(c, type(c)) for c in got.coeffs] == [(c, type(c)) for c in stored]
    again = _rebuilt(got)
    assert again == got
    assert hash(again) == hash(got)


@st.composite
def _operand(draw, scalars):
    """(series, kind) for a window drawn by ``_windows``."""
    s = draw(_windows(scalars))
    return s, _kind(s.coeffs)


_OPERATIONS = {
    "+": (operator.add, _naive_add),
    "-": (operator.sub, lambda x, y: _naive_add(x, (y[0], [-c for c in y[1]]))),
    "*": (operator.mul, _naive_mul),
    "/": (operator.truediv, _naive_div),
}
_UNDEFINED = (DivisionByNonUnit, DivisionByZeroSeries, ZeroDivisionError)


class TestTypeRule:
    """Every kernel result reads the values of a naive Fraction
    computation with the types of the type rule (the comment above)."""

    @kernel_kinds
    @fast
    @given(data=st.data(), op=st.sampled_from(sorted(_OPERATIONS)))
    def test_series_arithmetic(self, kind, data, op):
        (a, ka), (b, kb) = (data.draw(_operand(KERNEL_SCALARS[kind])) for _ in "ab")
        engine, naive = _OPERATIONS[op]
        try:
            got = engine(a, b)
        except _UNDEFINED:
            return
        # a quotient is rational unless a MultiPoly takes part
        extra = ("rational",) if op == "/" else ()
        _obeys_type_rule(got, naive(_naive(a), _naive(b)), _join(ka, kb, *extra))

    @kernel_kinds
    @fast
    @given(data=st.data(), op=st.sampled_from(sorted(_OPERATIONS)), swap=st.booleans())
    def test_scalar_arithmetic(self, kind, data, op, swap):
        a, ka = data.draw(_operand(KERNEL_SCALARS[kind]))
        c = data.draw(KERNEL_SCALARS[kind])
        engine, naive = _OPERATIONS[op]
        lift = (0, [c if isinstance(c, MultiPoly) else Fraction(c)])
        try:
            got = engine(c, a) if swap else engine(a, c)
        except _UNDEFINED:
            return
        expected = naive(lift, _naive(a)) if swap else naive(_naive(a), lift)
        extra = ("rational",) if op == "/" else ()
        _obeys_type_rule(got, expected, _join(ka, _kind([c]), *extra))

    @pytest.mark.parametrize("kind", ["int-only", "fractions", "mixed"])
    @fast
    @given(data=st.data(), k=st.integers(min_value=-4, max_value=6))
    def test_powers(self, kind, data, k):
        a, ka = data.draw(_operand(KERNEL_SCALARS[kind]))
        try:
            got = a ** k
        except _UNDEFINED:
            return
        kinds = ("int",) if k == 0 else (ka, "rational") if k < 0 else (ka,)
        _obeys_type_rule(got, _naive_pow(_naive(a), k), _join(*kinds))

    @kernel_kinds
    @fast
    @given(data=st.data(), k=st.integers(min_value=-4, max_value=4))
    def test_shift_and_product_coeff(self, kind, data, k):
        (a, ka), (b, kb) = (data.draw(_operand(KERNEL_SCALARS[kind])) for _ in "ab")
        shifted = a.shift(k)
        _obeys_type_rule(shifted, (a.min_exponent + k, _naive(a)[1]), ka)
        product = _naive_mul(_naive(a), _naive(b))
        for n in range(-6, ORDER):
            got = a.to_laurent().product_coeff(b, n) if isinstance(
                a, PowerSeries
            ) else a.product_coeff(b, n)
            assert got == _value(product, n)
            if _join(ka, kb) != "poly":
                rational = _join(ka, kb) == "rational" and got
                assert type(got) is (Fraction if rational else int)

    @kernel_kinds
    @fast
    @given(data=st.data())
    def test_compose(self, kind, data):
        scalars = KERNEL_SCALARS[kind]
        outer_entries = data.draw(_outer_coeffs(scalars))
        inner_entries = [0, data.draw(_nonzero(scalars))] + data.draw(
            st.lists(scalars, max_size=ORDER - 2)
        )
        outer = PowerSeries(outer_entries, ORDER)
        inner = PowerSeries(inner_entries, ORDER)
        expected = _naive_compose(_naive(outer), _naive(inner))
        # Horner's rule forms no product for a constant outer series
        constant = not any(outer.coeffs[1:])
        kinds = (_kind(outer_entries),) + (() if constant else (_kind(inner_entries),))
        _obeys_type_rule(compose(outer, inner), expected, _join(*kinds))

    @kernel_kinds
    @fast
    @given(data=st.data())
    def test_exp_and_log(self, kind, data):
        tail = data.draw(st.lists(KERNEL_SCALARS[kind], max_size=ORDER - 1))
        a = PowerSeries([0] + tail, ORDER)
        ka = _kind(tail)
        _obeys_type_rule(a.exp(), _naive_exp(_naive(a)[1]), _join(ka, "rational"))
        one_plus = a + 1
        _obeys_type_rule(
            one_plus.log(), _naive_log(_naive(one_plus)), _join(ka, "rational")
        )

    @pytest.mark.parametrize("kind", ["int-only", "fractions", "mixed"])
    @fast
    @given(data=st.data())
    def test_reversion(self, kind, data):
        scalars = KERNEL_SCALARS[kind]
        f = PowerSeries(
            [0, data.draw(_nonzero(scalars))]
            + data.draw(st.lists(scalars, max_size=ORDER - 2)),
            ORDER,
        )
        _obeys_type_rule(f.reversion(), _naive_reversion(_naive(f)), "rational")


_X, _Y = PolyRing("x", "y").gens()

# str() of series and of MultiPoly, as both read through one writer
TEXT_PINS = [
    (PowerSeries([0, 0], 3), "0 + O(x^3)"),
    (PowerSeries([], 1), "0 + O(x^1)"),
    (LaurentSeries([1, -1, 0, 2], -2, 3), "x^-2 - x^-1 + 2*x + O(x^3)"),
    (LaurentSeries([-1, 0, 3], -3, 1), "-x^-3 + 3*x^-1 + O(x^1)"),
    (PowerSeries([1, -1, 0, 1], 5), "1 - x + x^3 + O(x^5)"),
    (PowerSeries([-1, 1, 0, -1], 4), "-1 + x - x^3 + O(x^4)"),
    (PowerSeries([Fraction(-1, 2), Fraction(-3, 4), 0, Fraction(5, 2)], 5),
     "-1/2 - 3/4*x + 5/2*x^3 + O(x^5)"),
    (PowerSeries([1, _X + _Y, -_X * _Y], 3), "1 + (y + x)*x - x*y*x^2 + O(x^3)"),
    (PowerSeries([_X - 1, 1 - _Y, 2 * _X], 4),
     "-1 + x + (1 - y)*x + 2*x*x^2 + O(x^4)"),
    (1 - _X * _Y + 2 * _X ** 2 - Fraction(1, 3) * _Y, "1 - 1/3*y - x*y + 2*x^2"),
    (MultiPoly(("x", "y")), "0"),
    (-_X, "-x"),
    (_X * _Y ** 2 - 1, "-1 + x*y^2"),
    (Fraction(-1, 2) + _X, "-1/2 + x"),
    (3 + 0 * _X, "3"),
]


@pytest.mark.parametrize("value, text", TEXT_PINS, ids=[t for _, t in TEXT_PINS])
def test_text_of_a_sum_of_terms(value, text):
    assert str(value) == text
