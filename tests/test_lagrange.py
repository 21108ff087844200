"""Coefficient extraction engine: fixed points, the five forms, dualities."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagrange_kit import identities, lagrange, scalars, series
from lagrange_kit.errors import (
    BadConstantTerm,
    FormAUndefined,
    InadmissibleComposition,
    NotReversible,
    OrderMismatch,
    OutOfPrecision,
    SizeLimit,
    UnguardedCoefficient,
)
from lagrange_kit.lagrange import (
    FormValues,
    _divided_derivative,
    _ratio_terms,
    _shift_terms,
    cauchy_convolution_check,
    constant_term_supplement,
    derivative_form,
    explicit_coefficient,
    explicit_from_inverse,
    inversion_form_sweep,
    log_f_over_x,
    raney_coefficient,
    schur_jabotinsky_pair,
    schur_jabotinsky_window,
    solve_indeterminate,
    solve_xR,
)
from lagrange_kit.scalars import (
    MultiPoly,
    PolyRing,
    scalar_div_int,
)
from lagrange_kit.series import LaurentSeries, PowerSeries, _Series, compose
from lagrange_kit.trees import count_by_profile, ordered_profiles


def _random_R(rng, order, degree=4):
    coeffs = [Fraction(1)] + [
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(degree)
    ]
    return PowerSeries(coeffs, order)


def _reference_solve_xR(R):
    """[x^k] f = (1/k) [t^(k-1)] R^k from a schoolbook walk of the powers
    of R in plain scalar arithmetic, skipping zero terms.  With a Fraction
    among rational coefficients every later nonzero coefficient of f is a
    Fraction and every zero one the int 0, as in the series products."""
    r = list(R.coeffs)
    n = len(r)
    kinds = {type(c) for c in r}
    fractions = Fraction in kinds and kinds <= {int, Fraction}
    f = [0] * n
    power = r
    for k in range(1, n):
        if k > 1:
            nxt = []
            for m in range(n - 1):
                acc = 0
                for i in range(m + 1):
                    if power[i] and r[m - i]:
                        acc = acc + power[i] * r[m - i]
                nxt.append(acc)
            power = nxt
        c = power[k - 1]
        if fractions and k > 1:
            f[k] = Fraction(c) / k if c else 0
        elif isinstance(c, int) and not c % k:
            f[k] = c // k
        else:
            f[k] = scalar_div_int(c, k)
    return f


_ints = st.integers(min_value=-5, max_value=5)
_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_poly_ring = PolyRing("a", "b")
_pa, _pb = _poly_ring.gens()
# each kind of weight series, with plenty of zeros
R_SCALARS = {
    "int-only": st.one_of(st.just(0), _ints),
    "fractions": st.one_of(st.just(Fraction(0)), _fractions),
    "mixed": st.one_of(st.just(0), _ints, _fractions),
    "multipoly": st.one_of(
        st.just(0),
        _ints,
        st.tuples(_fractions, _fractions).map(lambda t: t[0] * _pa + t[1] * _pb + 1),
    ),
}


class TestSolveXR:
    @pytest.mark.parametrize("kind", sorted(R_SCALARS))
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data(), order=st.integers(min_value=1, max_value=10))
    def test_matches_reference_walk(self, kind, data, order):
        coeffs = data.draw(st.lists(R_SCALARS[kind], max_size=order))
        R = PowerSeries(coeffs, order)
        got = solve_xR(R).coeffs
        expected = _reference_solve_xR(R)
        assert list(got) == expected
        assert [type(c) for c in got] == [type(c) for c in expected]

    @pytest.mark.parametrize("kind", sorted(R_SCALARS))
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data(), degree=st.integers(min_value=0, max_value=4))
    def test_low_degree_matches_reference_walk(self, kind, data, degree):
        # a short R at a long order, so the window of each power moves
        last = data.draw(R_SCALARS[kind].filter(bool))
        coeffs = data.draw(st.lists(R_SCALARS[kind], min_size=degree,
                                    max_size=degree)) + [last]
        order = data.draw(st.integers(min_value=degree + 1, max_value=40))
        R = PowerSeries(coeffs, order)
        got = solve_xR(R).coeffs
        expected = _reference_solve_xR(R)
        assert list(got) == expected
        assert [type(c) for c in got] == [type(c) for c in expected]

    def test_walk_scans_only_the_window_for_linear_R(self, monkeypatch):
        # the walk's product steps scan each entry of the last power's
        # window against R's two terms: about n^2 pairs, where the full
        # walk scans n - 1 entries per step, about 2 n^2
        n = 60
        scanned, in_walk = [0], []
        walk, product = lagrange._powers, series._product

        def counted_product(a, b_terms, length):
            if in_walk:
                scanned[0] += len(a[:length]) * len(b_terms)
            return product(a, b_terms, length)

        def counted_walk(*args):
            steps = walk(*args)
            while True:
                in_walk.append(True)
                power = next(steps, None)
                in_walk.pop()
                if power is None:
                    return
                yield power

        monkeypatch.setattr(series, "_product", counted_product)
        monkeypatch.setattr(lagrange, "_powers", counted_walk)
        a, b = Fraction(2, 3), Fraction(-3, 2)
        f = solve_xR(PowerSeries([a, b], n))
        assert f.coeffs[1:] == tuple(a * b ** (k - 1) for k in range(1, n))
        assert 0 < scanned[0] <= n * (n + 1)

    @pytest.mark.parametrize("kind", sorted(R_SCALARS))
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data(), degree=st.integers(min_value=0, max_value=4))
    def test_power_k_matches_binary_powering(self, kind, data, degree):
        # form A at exponent k against the series product, values and
        # types, with k past the order too
        last = data.draw(R_SCALARS[kind].filter(bool))
        coeffs = data.draw(st.lists(R_SCALARS[kind], min_size=degree,
                                    max_size=degree)) + [last]
        order = data.draw(st.integers(min_value=1, max_value=40))
        k = data.draw(st.integers(min_value=1, max_value=order + 2))
        R = PowerSeries(coeffs[:order], order)
        got, expected = solve_xR(R, k).coeffs, (solve_xR(R) ** k).coeffs
        assert got == expected
        assert [type(c) for c in got] == [type(c) for c in expected]

    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("k", [1, 3])
    def test_walk_scans_only_up_to_the_degree_for_linear_R(self, monkeypatch, n, k):
        # the window of power K starts k - 1 entries below entry K - 1 and
        # each step scans the last power only up to its degree K - 1, so
        # the walk is linear in n; the window alone scans about n^2 pairs
        scanned, in_walk = [0], []
        walk, product = lagrange._powers, series._product

        def counted_product(a, b_terms, length):
            if in_walk:
                scanned[0] += len(a[:length]) * len(b_terms)
            return product(a, b_terms, length)

        def counted_walk(*args):
            steps = walk(*args)
            while True:
                in_walk.append(True)
                power = next(steps, None)
                in_walk.pop()
                if power is None:
                    return
                yield power

        monkeypatch.setattr(series, "_product", counted_product)
        monkeypatch.setattr(lagrange, "_powers", counted_walk)
        a, b = Fraction(2, 3), Fraction(-3, 2)
        fk = solve_xR(PowerSeries([a, b], n), k)
        # f = a x / (1 - b x), so [x^K] f^k = C(K - 1, k - 1) a^k b^(K - k)
        assert fk.coeffs[k:] == tuple(
            comb(K - 1, k - 1) * a ** k * b ** (K - k) for K in range(k, n)
        )
        assert 0 < scanned[0] <= 2 * (k + 1) * n

    def test_k_at_or_past_the_order_runs_no_walk(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(lagrange, "_powers", no_walk)
        for k in (5, 6, 50):
            fk = solve_xR(PowerSeries([1, 1], 5), k)
            assert fk.is_zero() and fk.order == 5

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_1_rejected(self, k):
        with pytest.raises(SizeLimit, match="k must be at least 1"):
            solve_xR(PowerSeries([1, 1], 5), k)

    @pytest.mark.parametrize("min_exponent", [-1, 0])
    def test_laurent_R_rejected(self, min_exponent):
        with pytest.raises(InadmissibleComposition, match="R must be a power series"):
            solve_xR(LaurentSeries([1, 1], min_exponent, 4))

    def test_tree_function_at_order_150(self):
        n = 150
        f = solve_xR(PowerSeries([Fraction(1, factorial(k)) for k in range(n)], n))
        assert f.coeffs == (0,) + tuple(
            Fraction(k ** (k - 1), factorial(k)) for k in range(1, n)
        )
        assert all(type(c) is Fraction for c in f.coeffs[1:])

    def test_geometric_weights_give_catalan(self):
        f = solve_xR(PowerSeries([1] * 10, 10))
        assert f.coeffs == (0, 1, 1, 2, 5, 14, 42, 132, 429, 1430)

    def test_fixed_point_property(self):
        rng = random.Random(3)
        for _ in range(10):
            R = _random_R(rng, 12)
            f = solve_xR(R)
            assert f == PowerSeries([0, 1], 12) * compose(R, f)

    def test_agrees_with_reversion_of_x_over_R(self):
        rng = random.Random(4)
        for _ in range(10):
            R = _random_R(rng, 12)
            x = PowerSeries([0, 1], 12)
            assert solve_xR(R) == (x / R).reversion()

    def test_order_argument_truncates(self):
        # f has the order of R; a shorter f comes from a shorter R
        R = PowerSeries([1] * 10, 10)
        assert solve_xR(R.truncated(6)) == solve_xR(R).truncated(6)

    def test_zero_weight_series(self):
        assert solve_xR(PowerSeries([0], 4)).is_zero()

    def test_integer_R_keeps_integer_coefficients(self):
        # x (1 + t)^3 gives the ternary-tree numbers binom(3n, n) / (2n + 1)
        f = solve_xR(PowerSeries([1, 3, 3, 1], 8))
        assert f.coeffs == (0, 1, 3, 12, 55, 273, 1428, 7752)
        assert all(type(c) is int for c in f.coeffs)

    def test_polynomial_coefficients(self):
        ring = PolyRing("a")
        a = ring.var("a")
        f = solve_xR(PowerSeries([ring.one(), a, a * a], 6))
        motzkin = (1, 1, 2, 4, 9)
        assert f.coeffs[1:] == tuple(m * a ** n for n, m in enumerate(motzkin))


class TestSolveIndeterminate:
    def test_unguarded_coefficient_rejected(self):
        ring = PolyRing("a")
        a = ring.var("a")
        bad = PowerSeries([ring.one(), a + 1], 2)
        with pytest.raises(UnguardedCoefficient):
            solve_indeterminate(bad, 4)
        with pytest.raises(UnguardedCoefficient):
            solve_indeterminate(PowerSeries([ring.one(), ring.one()], 2), 4)

    def test_negative_degree_bound_rejected(self):
        a = PolyRing("a").var("a")
        with pytest.raises(SizeLimit, match="degree bound must be nonnegative"):
            solve_indeterminate(PowerSeries([1, a], 2), -1)

    def test_single_variable_catalan(self):
        ring = PolyRing("a")
        a = ring.var("a")
        f = solve_indeterminate(PowerSeries([ring.one(), a], 2), 6)
        # f = 1 + a f^2-free: here f = 1 + a f, so f = sum a^n
        assert f == sum((a ** n for n in range(7)), ring.zero())

    def test_quadratic_gives_catalan_numbers(self):
        ring = PolyRing("a")
        a = ring.var("a")
        R = PowerSeries([ring.one(), ring.zero(), a], 3)
        f = solve_indeterminate(R, 5)
        catalan = [1, 1, 2, 5, 14, 42]
        for n in range(6):
            assert f.coefficient((n,)) == catalan[n]


def _reference_solve_indeterminate(R, degree_bound):
    """The full-bound iteration ``solve_indeterminate`` replaced: D + 1
    rounds, each forming every Horner product in full and truncating it at
    D, for an R whose guard holds."""
    sample = next(c for c in R.coeffs if isinstance(c, MultiPoly))
    coeffs = [c if isinstance(c, MultiPoly) else MultiPoly.const(sample.vars, c)
              for c in R.coeffs]
    top = max([i for i, c in enumerate(coeffs) if not c.is_zero()], default=0)

    def evaluate(f):
        acc = coeffs[top]
        for i in range(top - 1, -1, -1):
            acc = (acc * f).truncate_total(degree_bound) + coeffs[i]
        return acc

    f = MultiPoly(sample.vars)
    for _ in range(degree_bound + 1):
        f = evaluate(f)
    assert evaluate(f) == f
    return f


_VARS = ("a", "b")
_coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)
)


def _guarded_polys(min_degree):
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda e: sum(e) >= min_degree
    )
    return st.dictionaries(exps, _coefficients, max_size=4).map(
        lambda terms: MultiPoly(_VARS, terms)
    )


class _FormedTerms:
    """Counts the MultiPoly product terms formed inside scoped calls, and
    keeps those above the scope's bound.  ``scalars`` forms every product
    term as tuple(map(add, ea, eb)), so a module-level ``tuple`` there sees
    each one."""

    def __init__(self, patch):
        self.bounds = []
        self.formed = 0
        self.above = []
        patch.setattr(scalars, "tuple", self._tuple, raising=False)

    def _tuple(self, items=()):
        out = tuple(items)
        if self.bounds and isinstance(items, map):
            self.formed += 1
            if sum(out) > self.bounds[-1]:
                self.above.append(out)
        return out

    def scoped(self, func, bound_of):
        def call(*args, **kwargs):
            self.bounds.append(bound_of(*args, **kwargs))
            try:
                return func(*args, **kwargs)
            finally:
                self.bounds.pop()

        return call


class TestSolveIndeterminateRounds:
    """Round j works through total degree j only; the result is the full
    iteration's, term for term."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_full_bound_iteration(self, data):
        r0 = data.draw(st.one_of(_coefficients, _guarded_polys(0)))
        rest = data.draw(st.lists(
            st.one_of(st.just(0), _guarded_polys(1)), min_size=1, max_size=4))
        bound = data.draw(st.integers(0, 5))
        if not any(isinstance(c, MultiPoly) for c in rest):
            rest[0] = MultiPoly.variable(_VARS, "a")
        R = PowerSeries([r0] + rest, len(rest) + 1)
        got = solve_indeterminate(R, bound)
        want = _reference_solve_indeterminate(R, bound)
        assert got.terms == want.terms

    def test_constant_coefficient_above_the_bound_is_kept(self):
        ring = PolyRing(*_VARS)
        a, b = ring.gens()
        r0 = 1 + a ** 3 * b ** 2 + Fraction(1, 2) * b ** 7
        R = PowerSeries([r0, a + b * b, a * b], 3)
        got = solve_indeterminate(R, 3)
        assert got.terms == _reference_solve_indeterminate(R, 3).terms
        assert got.coefficient((3, 2)) == 1
        assert got.coefficient((0, 7)) == Fraction(1, 2)
        assert got.truncate_total(3) != got

    def test_forms_no_product_term_above_the_bound(self, monkeypatch):
        formed = _FormedTerms(monkeypatch)
        solve = formed.scoped(solve_indeterminate, lambda R, bound: bound)
        ring = PolyRing("r0", "r1", "r2", "r3")
        gens = ring.gens()
        solve(PowerSeries(list(gens), 4), 6)
        x, y = PolyRing("x", "y").gens()
        solve(PowerSeries([1 + x ** 5, x + y, x * y], 3), 4)
        assert formed.formed > 0
        assert formed.above == []

    def test_suites_read_powers_without_terms_above_the_bound(self, monkeypatch):
        formed = _FormedTerms(monkeypatch)
        bounds = {}

        def solve(R, bound):
            f = solve_indeterminate(R, bound)
            bounds[id(f)] = bound, f  # f stays alive, so its id stays its own
            return f

        monkeypatch.setattr(
            identities, "solve_indeterminate",
            formed.scoped(solve, lambda R, bound: bound))
        reads = []

        def power_bound(f, k, *bound):
            reads.append(id(f))
            return bounds.get(id(f), (float("inf"),))[0]

        for name in ("__pow__", "pow_truncated"):
            monkeypatch.setattr(MultiPoly, name, formed.scoped(
                getattr(MultiPoly, name), power_bound))
        for name, params in (("narayana", {"degree_bound": 4}),
                             ("fuss-narayana", {"degree_bound": 3}),
                             ("raney", {"i_total_max": 3})):
            assert identities.run_identity(name, **params).passed
        assert set(reads) >= set(bounds)
        assert formed.formed > 0
        assert formed.above == []


class TestOrderedForestInvariant:
    """The symbolic fixed point must reproduce the forest census by profile."""

    def test_profile_coefficients_match_census(self):
        bound = 8
        names = tuple("r%d" % i for i in range(bound))
        ring = PolyRing(*names)
        gens = ring.gens()
        R = PowerSeries(list(gens), bound)
        f = solve_indeterminate(R, bound)
        fk = f
        for k in range(1, 4):
            if k > 1:
                fk = (fk * f).truncate_total(bound)
            for n in range(k, bound + 1):
                for profile in ordered_profiles(n, k):
                    counts = dict(profile)
                    exps = tuple(counts.get(i, 0) for i in range(bound))
                    assert fk.coefficient(exps) == count_by_profile(
                        n, k, counts
                    ), (n, k, profile)

    def test_explicit_sum_equals_symbolic_slice(self):
        names = tuple("r%d" % i for i in range(4))
        ring = PolyRing(*names)
        gens = ring.gens()
        R = PowerSeries(list(gens), 4)
        f = solve_indeterminate(R, 7)
        for k in (1, 2, 3):
            fk = f ** k
            for n in range(k, 8):
                slice_poly = sum(
                    (
                        MultiPoly.const(names, c)
                        * ring.one()
                        * _monomial(ring, names, e)
                        for e, c in fk.terms.items()
                        if sum(e) == n
                    ),
                    ring.zero(),
                )
                assert explicit_coefficient(list(gens), n, k) == slice_poly


def _monomial(ring, names, exps):
    acc = ring.one()
    for name, e in zip(names, exps):
        acc = acc * ring.var(name) ** e
    return acc


class TestFormAgreement:
    def test_catalan_forms_closed_values(self):
        order = 14
        R = PowerSeries([1] * order, order)
        phi = PowerSeries([0, 0, 1], order)  # t^2
        for fv in inversion_form_sweep(phi, R, range(2, 9)):
            n = fv.n
            want = Fraction(2, 2 * n - 2) * comb(2 * n - 2, n - 2)
            assert fv.agree
            assert fv.direct == want

    def test_binary_weights(self):
        # f = x (1 + f)^2 has [x^n] f = (1/n) C(2n, n-1)
        order = 12
        R = PowerSeries([1, 2, 1], order)
        phi = PowerSeries([0, 1], order)
        for fv in inversion_form_sweep(phi, R, range(1, 9)):
            assert fv.agree
            assert fv.direct == Fraction(comb(2 * fv.n, fv.n - 1), fv.n)

    def test_laurent_phi_and_negative_indices(self):
        # with f = x c(x): 1/f = 1/x - c(x)
        order = 14
        R = PowerSeries([1] * order, order)
        phi = LaurentSeries([1], -1, order)
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        values = inversion_form_sweep(phi, R, range(-3, 9))
        for fv in values:
            assert fv.agree
            if fv.n == -1:
                assert fv.direct == 1
            elif fv.n < -1:
                assert fv.direct == 0
            else:
                assert fv.direct == -catalan[fv.n]

    def test_random_pairs_agree(self):
        rng = random.Random(9)
        order = 16
        for _ in range(8):
            R = _random_R(rng, order)
            tail = [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(order + 2)
            ]
            phi = LaurentSeries(tail, -2, order)
            for fv in inversion_form_sweep(phi, R, range(-4, 11)):
                assert fv.agree, (fv.n, R.coeffs[:5])

    def test_forms_read_their_full_products(self):
        # each form, read as one dot product, is the coefficient of the
        # whole product of its own operands, of the same type
        rng = random.Random(11)
        order = 16
        x = PowerSeries([0, 1], order)
        for _ in range(4):
            R = _random_R(rng, order)
            phi = LaurentSeries(
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(18)],
                -2,
                order,
            )
            rp = R.derivative()
            wphi = phi * (1 - (x * rp) / R)
            for fv in inversion_form_sweep(phi, R, range(-4, 11)):
                n = fv.n
                rn, rn1 = R ** n, R ** (n - 1)
                d_value = (phi * rn).coeff(n)
                expected = [
                    d_value - ((phi * rp) * rn1).coeff(n - 1),
                    (wphi * rn).coeff(n),
                    d_value,
                    d_value,
                ]
                got = [fv.form_c, fv.form_b, fv.form_d, fv.form_e]
                if n:
                    got.append(fv.form_a)
                    expected.append(
                        Fraction((phi.derivative() * rn).coeff(n - 1)) / n
                    )
                assert got == expected
                assert [type(v) for v in got] == [type(v) for v in expected]

    def test_precision_guard(self):
        order = 10
        R = PowerSeries([1, 1], order)
        with pytest.raises(OutOfPrecision):
            inversion_form_sweep(PowerSeries([1], order), R, [order - 1])
        phi = LaurentSeries([1], -2, order)
        with pytest.raises(OutOfPrecision):
            inversion_form_sweep(phi, R, [order - 4])

    def test_requires_unit_weight(self):
        with pytest.raises(BadConstantTerm):
            inversion_form_sweep(
                PowerSeries([1], 6), PowerSeries([0, 1], 6), [2]
            )

    def test_agree_flag(self):
        R = PowerSeries([1, 1], 10)
        (fv,) = inversion_form_sweep(PowerSeries([0, 1], 10), R, [4])
        assert isinstance(fv, FormValues)
        assert fv.agree
        broken = FormValues(
            n=1, form_a=1, form_b=2, form_c=1, form_d=1, form_e=1,
            direct=1, ratio_x=1, ratio_f=1,
        )
        assert not broken.agree


class TestPolynomiality:
    """[t^m] R(t)^n is a polynomial in n; negative n follow the same rule."""

    def test_interpolation_extends_to_negative_powers(self):
        # degree at most m in n: every (m+1)-th difference vanishes, also
        # on windows that reach the negative powers
        rng = random.Random(11)
        order = 9
        for _ in range(5):
            R = _random_R(rng, order, degree=3)
            for m in range(1, 5):
                values = [(R ** n).coeff(m) for n in range(-3, m + 4)]
                for start in range(len(values) - m - 1):
                    window = values[start : start + m + 2]
                    assert identities.finite_difference(window, m + 1) == 0

    def test_log_route_matches_series(self):
        rng = random.Random(12)
        order = 10
        for _ in range(5):
            R = _random_R(rng, order, degree=3)
            f = solve_xR(R)
            f_over_x = f.shift(-1)
            coeffs = [f_over_x.coeff(n) for n in range(order)]
            series = PowerSeries(coeffs, order).log()
            for m in range(1, order - 1):
                assert log_f_over_x(R, m) == series.coeff(m)

    def test_log_route_requires_unit_one(self):
        with pytest.raises(BadConstantTerm):
            log_f_over_x(PowerSeries([2, 1], 6), 3)
        with pytest.raises(FormAUndefined):
            log_f_over_x(PowerSeries([1, 1], 6), 0)

    def test_constant_term_supplement(self):
        rng = random.Random(13)
        order = 12
        for _ in range(6):
            R = _random_R(rng, order, degree=3)
            tail = [
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(order + 1)
            ]
            phi = LaurentSeries(tail, -2, order)
            f = solve_xR(R)
            direct = compose(phi, f).coeff(0)
            assert constant_term_supplement(phi, R) == direct


class TestExplicitSums:
    def test_matches_series_coefficients(self):
        rng = random.Random(17)
        order = 11
        for _ in range(6):
            r = [Fraction(1)] + [
                Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for _ in range(3)
            ]
            R = PowerSeries(r, order)
            f = solve_xR(R)
            for k in range(1, 4):
                fk = f ** k
                for n in range(1, order):
                    assert explicit_coefficient(r, n, k) == fk.coeff(n)

    def test_single_tree_chain(self):
        # R = 1 + t: only the path profile survives, every coefficient is 1
        for n in range(1, 8):
            assert explicit_coefficient([1, 1], n, 1) == 1

    def test_inverse_profile_sum(self):
        rng = random.Random(19)
        order = 10
        for _ in range(6):
            g_tail = [
                Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for _ in range(2)
            ]
            g = PowerSeries(
                [0, 1] + [-c for c in g_tail], order
            )
            f = g.reversion()
            for k in range(1, 4):
                fk = f ** k
                for m in range(1, order):
                    assert explicit_from_inverse(g_tail, m, k) == fk.coeff(m)

    def test_vacuous_cases(self):
        assert explicit_coefficient([1, 1], 0, 1) == 0
        assert explicit_from_inverse([1], 0, 2) == 0
        assert explicit_from_inverse([1], 1, 2) == 0

    def test_empty_list_is_the_zero_series(self):
        for n in range(-2, 7):
            for k in range(-2, 7):
                got = explicit_coefficient([], n, k)
                want = explicit_coefficient([0], n, k)
                assert got == want and type(got) is type(want)


class TestRaney:
    def test_profile_mismatch_is_zero(self):
        assert raney_coefficient((1, 1), (0, 2), 1) == 0

    def test_single_block_reduction(self):
        # one exponential term a e^(bt): profile (n) with (n-k) uses
        for n in range(1, 7):
            for k in range(1, n + 1):
                got = raney_coefficient((n,), (n - k,), k)
                want = Fraction(k, n) * Fraction(
                    n ** (n - k), factorial(n - k)
                )
                assert got == want

    def test_known_two_block_value(self):
        # k = 1, profile i = (2, 1), j = (1, 1): 1 * 2!/2!/1! * 2^1/1! * 1^1/1!
        assert raney_coefficient((2, 1), (1, 1), 1) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            raney_coefficient((1,), (0, 0), 1)
        with pytest.raises(ValueError):
            raney_coefficient((1,), (0,), 0)


class TestSchurJabotinsky:
    def test_worked_pair(self):
        order = 20
        f = solve_xR(PowerSeries([1] * order, order))  # x c(x)
        g = f.reversion()
        assert g == PowerSeries([0, 1, -1], order)
        for n in range(-4, 7):
            if n == 0:
                continue
            for k in range(-4, 6):
                if n >= order - 8 or -k >= order - 8:
                    continue
                lhs, rhs = schur_jabotinsky_pair(f, n, k)
                assert lhs == rhs, (n, k)

    def test_pair_values(self):
        order = 16
        f = solve_xR(PowerSeries([1] * order, order))
        lhs, rhs = schur_jabotinsky_pair(f, 5, 2)
        assert lhs == rhs == Fraction(2, 8) * comb(8, 3)

    def test_random_series(self):
        rng = random.Random(23)
        order = 18
        for _ in range(6):
            coeffs = [0, 1] + [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(order - 4)
            ]
            f = PowerSeries(coeffs, order)
            for n, k in [(3, 4), (-2, 3), (4, -2), (-3, -3), (6, 1)]:
                lhs, rhs = schur_jabotinsky_pair(f, n, k)
                assert lhs == rhs, (n, k)

    def test_guards(self):
        f = PowerSeries([0, 1, 1], 10)
        with pytest.raises(FormAUndefined):
            schur_jabotinsky_pair(f, 0, 2)
        with pytest.raises(NotReversible):
            schur_jabotinsky_pair(PowerSeries([0, 0, 1], 10), 2, 1)
        with pytest.raises(OutOfPrecision):
            schur_jabotinsky_pair(f, 9, 0)
        with pytest.raises(OutOfPrecision):
            schur_jabotinsky_pair(f, 1, -8)

    @staticmethod
    def _duality_sides(f, g, n, k):
        """The reference route: both sides read with g = f.reversion() at
        f's full order."""
        lhs = (f.to_laurent() ** k).coeff(n)
        rhs_coeff = (g.to_laurent() ** (-n)).coeff(-k)
        return lhs, Fraction(k, n) * rhs_coeff

    @staticmethod
    def _window_pairs(order):
        return [
            (n, k)
            for n in range(-6, 7)
            for k in range(-6, 7)
            if schur_jabotinsky_window(order, n, k)
        ]

    @settings(derandomize=True, max_examples=40, deadline=None)
    # truncated to the least window order of (1, 1), x + x^6/2 has no
    # Fraction left, and the left side must still be Fraction(1)
    @example(order=12, lead=1, tail=[0, 0, 0, 0, Fraction(1, 2)])
    @given(
        order=st.integers(min_value=7, max_value=30),
        lead=st.sampled_from([1, -1, 2, -3]),
        tail=st.lists(
            st.one_of(
                st.just(0),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
            ),
            max_size=28,
        ),
    )
    def test_pair_matches_full_order_reversion(self, order, lead, tail):
        # int zeros in the tail let a truncation drop every Fraction of f
        f = PowerSeries([0, lead] + tail[: order - 2], order)
        g = f.reversion()
        for n, k in self._window_pairs(order):
            want = self._duality_sides(f, g, n, k)
            got = schur_jabotinsky_pair(f, n, k)
            assert got == want, (n, k)
            assert [type(v) for v in got] == [type(v) for v in want], (n, k)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @example(order=12, kind=int, tail=[0, 0, 0, 0], half_at=6)  # x + x^6/2
    @given(
        order=st.integers(min_value=7, max_value=30),
        kind=st.sampled_from([int, Fraction]),
        tail=st.lists(st.integers(min_value=-3, max_value=3), max_size=28),
        half_at=st.none() | st.integers(min_value=2, max_value=29),
    )
    def test_left_side_is_the_full_f_power(self, order, kind, tail, half_at):
        # int-only f (int, no half), f whose Fractions are integral
        # (Fraction, no half), and f with one Fraction 1/2 that a
        # truncation may drop
        coeffs = [0, 1] + [kind(c) for c in tail[: order - 2]]
        if half_at is not None and half_at < order:
            coeffs += [0] * (half_at + 1 - len(coeffs))
            coeffs[half_at] = coeffs[half_at] + Fraction(1, 2)
        f = PowerSeries(coeffs, order)
        fl = f.to_laurent()
        for n, k in self._window_pairs(order):
            want = (fl ** k).coeff(n)
            got, _ = schur_jabotinsky_pair(f, n, k)
            assert got == want and type(got) is type(want), (n, k)

    def test_pair_forms_no_power_at_the_full_order(self, monkeypatch):
        calls = []
        truncated, power = PowerSeries.truncated, _Series.__pow__

        def counted_truncated(s, order):
            calls.append(("truncated", order))
            return truncated(s, order)

        def counted_power(s, k):
            calls.append(("pow", s.order))
            return power(s, k)

        monkeypatch.setattr(PowerSeries, "truncated", counted_truncated)
        monkeypatch.setattr(_Series, "__pow__", counted_power)
        order = 30
        f = PowerSeries([0, 1, Fraction(1, 2), -1, Fraction(2, 3)], order)
        for n, k in self._window_pairs(order):
            least = min(
                N for N in range(2, order + 1) if schur_jabotinsky_window(N, n, k)
            )
            calls.clear()
            schur_jabotinsky_pair(f, n, k)
            # one truncation to the least order; both powers read it
            assert calls == [("truncated", least), ("pow", least), ("pow", least)]

    def test_pair_reverts_at_the_least_window_order(self, monkeypatch):
        orders = []
        reversion = PowerSeries.reversion

        def recorded(f):
            orders.append(f.order)
            return reversion(f)

        monkeypatch.setattr(PowerSeries, "reversion", recorded)
        order = 20
        f = PowerSeries([0, 1, Fraction(1, 2), -1, Fraction(2, 3)], order)
        for n, k in self._window_pairs(order):
            least = min(
                N for N in range(2, order + 1) if schur_jabotinsky_window(N, n, k)
            )
            orders.clear()
            schur_jabotinsky_pair(f, n, k)
            assert len(orders) == 1 and orders[0] <= least, (n, k, orders)

    def test_window_predicate_mirrors_guards(self):
        f = PowerSeries([0, 1, 1], 10)
        for n in range(-8, 9):
            for k in range(-8, 9):
                if schur_jabotinsky_window(10, n, k):
                    schur_jabotinsky_pair(f, n, k)  # must not raise
                elif n != 0:
                    with pytest.raises(OutOfPrecision):
                        schur_jabotinsky_pair(f, n, k)


class TestShiftedEquation:
    def test_constant_H_is_taylor_shift(self):
        # f = x + z: the expansion of phi(x + z) lists phi^(m)/m!
        order = 12
        z_order = 4
        rng = random.Random(29)
        phi = PowerSeries(
            [Fraction(rng.randint(-3, 3)) for _ in range(order)], order
        )
        exp = derivative_form(phi, PowerSeries([1], order), z_order)
        assert exp.agree
        want = phi
        for m in range(z_order + 1):
            scaled = want * Fraction(1, factorial(m))
            assert exp.phi_direct[m] == scaled.truncated(exp.x_order)
            want = want.derivative()

    def test_random_triples_agree(self):
        rng = random.Random(31)
        order = 12
        for _ in range(6):
            mk = lambda: PowerSeries(
                [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                 for _ in range(order)],
                order,
            )
            exp = derivative_form(mk(), mk(), 4, psi=mk())
            assert exp.agree

    def test_psi_defaults_to_phi(self):
        order = 10
        phi = PowerSeries([1, 2, 3], order)
        H = PowerSeries([1, 1], order)
        a = derivative_form(phi, H, 3)
        b = derivative_form(phi, H, 3, psi=phi)
        assert a.ratio_direct == b.ratio_direct

    def test_planted_taylor_defect_fails_agree(self, monkeypatch):
        # the direct route reads every Taylor sum, including those that
        # solve for f, so a wrong sum at z^2 shows as a disagreement
        taylor_sum = lagrange._taylor_sum

        def planted(divided, pw, k):
            value = taylor_sum(divided, pw, k)
            return value + 1 if k == 2 else value

        monkeypatch.setattr(lagrange, "_taylor_sum", planted)
        phi = PowerSeries([1, 2, 3], 10)
        H = PowerSeries([1, 1], 10)
        assert not derivative_form(phi, H, 3).agree

    def test_z_order_bound(self):
        phi = PowerSeries([1], 4)
        with pytest.raises(OutOfPrecision):
            derivative_form(phi, phi, 4)

    def test_mixed_orders_raise_order_mismatch(self):
        phi = PowerSeries([1, 2, 3], 6)
        with pytest.raises(OrderMismatch):
            derivative_form(phi, PowerSeries([1, 1], 7), 2)
        with pytest.raises(OrderMismatch):
            inversion_form_sweep(phi, PowerSeries([1, 1], 7), [1])

    def test_negative_z_order_rejected_up_front(self):
        phi = PowerSeries([1, 2, 3], 6)
        with pytest.raises(SizeLimit, match="z_order must be nonnegative"):
            derivative_form(phi, phi, -1)

    def test_cauchy_convolutions(self):
        rng = random.Random(37)
        order = 10
        for _ in range(4):
            mk = lambda: PowerSeries(
                [Fraction(rng.randint(-2, 2)) for _ in range(order - 2)],
                order,
            )
            phi, psi, H = mk(), mk(), mk()
            for n in range(0, 5):
                assert cauchy_convolution_check(phi, psi, H, n)

    def test_cauchy_range_guard(self):
        phi = PowerSeries([1], 5)
        with pytest.raises(OutOfPrecision):
            cauchy_convolution_check(phi, phi, phi, 4)
        with pytest.raises(SizeLimit):
            cauchy_convolution_check(phi, phi, phi, -1)


# -- the shift expansions as first written: m repeated derivatives, H ** m
# and 1/m! as a Fraction, and one Taylor pass per substituted series


def _derivative_times(s, m):
    for _ in range(m):
        s = s.derivative()
    return s


def _over_factorial(s, m):
    return s * Fraction(1, factorial(m))


def _z_product(a, b, zero):
    return [sum((a[i] * b[j - i] for i in range(j + 1)), zero)
            for j in range(len(a))]


def _reference_taylor(alpha, fz, z_order):
    zero = PowerSeries([0], alpha.order)
    delta = [zero] + list(fz[1:z_order + 1])
    out = [alpha] + [zero] * z_order
    pw = delta
    for m in range(1, z_order + 1):
        cm = _over_factorial(_derivative_times(alpha, m), m)
        for j in range(m, z_order + 1):
            out[j] = out[j] + cm * pw[j]
        pw = _z_product(pw, delta, zero)
    return out


def _reference_derivative_form(phi, H, z_order, psi):
    """The five lists of ``derivative_form``, in its field order."""
    order = phi.order
    zero = PowerSeries([0], order)
    hp = H.derivative()
    via_shift = [phi] + [
        _over_factorial(_derivative_times(phi.derivative() * H ** m, m - 1), m)
        for m in range(1, z_order + 1)
    ]
    via_weight = [phi] + [
        _over_factorial(_derivative_times(phi * H ** m, m), m)
        - _over_factorial(
            _derivative_times(phi * hp * H ** (m - 1), m - 1), m - 1)
        for m in range(1, z_order + 1)
    ]
    ratio_via_powers = [
        _over_factorial(_derivative_times(psi * H ** m, m), m)
        for m in range(z_order + 1)
    ]
    fz = [PowerSeries([0, 1], order)] + [zero] * z_order
    for j in range(1, z_order + 1):
        fz[j] = _reference_taylor(H, fz, j - 1)[j - 1]
    phi_direct = _reference_taylor(phi, fz, z_order)
    psi_f = _reference_taylor(psi, fz, z_order)
    hp_f = _reference_taylor(hp, fz, z_order)
    # psi(f) / (1 - z H'(f)) by long division in z
    ratio_direct = []
    for j in range(z_order + 1):
        ratio_direct.append(psi_f[j] + sum(
            (hp_f[i - 1] * ratio_direct[j - i] for i in range(1, j + 1)), zero))
    x_order = order - z_order
    return [
        [e.truncated(x_order) for e in entries]
        for entries in (phi_direct, via_weight, via_shift, ratio_direct,
                        ratio_via_powers)
    ]


def _reference_cauchy_sums(phi, psi, H, n):
    """(lhs1, rhs1, lhs2, rhs2): both convolutions at index n, not yet
    divided by n!."""
    zero = PowerSeries([0], phi.order)

    def shift(g, m):
        if m == 0:
            return g
        return _derivative_times(g.derivative() * H ** m, m - 1)

    def ratio(g, m):
        return _derivative_times(g * H ** m, m)

    lhs1 = sum((comb(n, m) * (shift(phi, m) * ratio(psi, n - m))
                for m in range(n + 1)), zero)
    lhs2 = sum((comb(n, m) * (shift(phi, m) * shift(psi, n - m))
                for m in range(n + 1)), zero)
    return lhs1, ratio(phi * psi, n), lhs2, shift(phi * psi, n)


def _sparse_series(rng, order):
    pick = lambda: rng.choice(
        [0, 0, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))]
    )
    return PowerSeries([pick() for _ in range(order)], order)


def _sparse_triples(seed, order, count):
    rng = random.Random(seed)
    triples = [tuple(_sparse_series(rng, order) for _ in range(3))
               for _ in range(count)]
    phi, psi, H = triples[0]
    return triples + [(PowerSeries([0], order), psi, H)]


class TestShiftTermConstruction:
    """The closed-form terms against the construction they replaced."""

    def test_divided_derivative_is_repeated_derivative_over_factorial(self):
        order = 9
        rng = random.Random(41)
        ring = PolyRing("a", "b")
        a, b = ring.gens()
        cases = [
            PowerSeries([rng.randint(-5, 5) for _ in range(order)], order),
            PowerSeries([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(order)], order),
            PowerSeries([ring.one(), a, 0, a * b - 2, b * b, Fraction(1, 3) * a],
                        order),
        ]
        for s in cases:
            for m in range(order):
                want = _derivative_times(s, m) * Fraction(1, factorial(m))
                assert _divided_derivative(s, m) == want

    def test_derivative_form_matches_first_construction(self):
        order, z_order = 10, 4
        for phi, psi, H in _sparse_triples(43, order, 6):
            got = derivative_form(phi, H, z_order, psi=psi)
            want = _reference_derivative_form(phi, H, z_order, psi)
            fields = [got.phi_direct, got.phi_via_weight, got.phi_via_shift,
                      got.ratio_direct, got.ratio_via_powers]
            for got_entries, want_entries in zip(fields, want):
                assert len(got_entries) == z_order + 1
                assert got_entries == want_entries
            assert got.agree

    def test_cauchy_sums_match_first_construction(self):
        order = 10
        for phi, psi, H in _sparse_triples(47, order, 4):
            powers = [PowerSeries([1], order)]
            for _ in range(order - 2):
                powers.append(powers[-1] * H)
            for n in range(order - 1):
                x_order = order - n
                lhs1, rhs1, lhs2, rhs2 = _reference_cauchy_sums(phi, psi, H, n)
                ms = range(n + 1)
                shift_phi = _shift_terms(phi, powers, ms)
                zero = PowerSeries([0], order)
                for terms, lhs, rhs in ((_ratio_terms, lhs1, rhs1),
                                        (_shift_terms, lhs2, rhs2)):
                    psi_terms = terms(psi, powers, ms)
                    total = sum((shift_phi[m] * psi_terms[n - m] for m in ms),
                                zero)
                    assert total == lhs * Fraction(1, factorial(n))
                    assert (terms(phi * psi, powers, [n])[0]
                            == rhs * Fraction(1, factorial(n)))
                want = (lhs1.truncated(x_order) == rhs1.truncated(x_order)
                        and lhs2.truncated(x_order) == rhs2.truncated(x_order))
                assert cauchy_convolution_check(phi, psi, H, n) is want

    def test_no_series_is_raised_to_a_power(self, monkeypatch):
        calls = []
        power = _Series.__pow__

        def counted(s, k):
            calls.append(k)
            return power(s, k)

        monkeypatch.setattr(_Series, "__pow__", counted)
        for phi, psi, H in _sparse_triples(53, 10, 2):
            derivative_form(phi, H, 4, psi=psi)
            for n in range(5):
                cauchy_convolution_check(phi, psi, H, n)
        assert calls == []
