"""Identity catalog: every check runs clean and reports honestly."""

import inspect
import io
import re
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrange_kit import cli, identities, series, trees
from lagrange_kit.errors import (
    InsufficientRange,
    LagrangeKitError,
    OutOfPrecision,
    SelfCheckFailed,
    SizeLimit,
    UnknownIdentity,
)
from lagrange_kit.identities import (
    D_MAX_LIMIT,
    DEGREE_BOUND_LIMIT,
    I_TOTAL_MAX_LIMIT,
    IDENTITY_CATALOG,
    J_MAX_LIMIT,
    L_MAX_LIMIT,
    M_MAX_LIMIT,
    MAX_ORDER,
    N_MAX_LIMIT,
    PAIR_TRIALS_LIMIT,
    SERIES_M_MAX_LIMIT,
    TRIALS_LIMIT,
    IdentityReport,
    _binomial_convolutions,
    _narayana_family,
    _Recorder,
    _residue_after,
    catalan_series,
    check_catalan_suite,
    check_fc_polynomiality,
    check_jensen,
    check_rothe_hagen,
    check_schur_jabotinsky,
    compute_p_l,
    compute_q_l,
    compute_r_m,
    finite_difference,
    fuss_catalan_series,
    identity_names,
    run_all,
    run_identity,
    tree_function,
    weighted_stirling,
)
from lagrange_kit.scalars import PolyRing, int_binomial
from lagrange_kit.series import LaurentSeries, PowerSeries, _Series


class TestCatalogSurface:
    def test_names_are_sorted_and_complete(self):
        names = identity_names()
        assert names == sorted(names)
        assert len(names) == 19
        assert set(names) == set(IDENTITY_CATALOG)

    def test_every_identity_passes_at_modest_order(self):
        for name in identity_names():
            report = run_identity(name, order=14)
            assert report.passed, (name, report.first_failure)
            assert report.status == "pass"
            assert report.first_failure is None
            assert report.name == name

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            run_identity("not-a-thing")

    def test_run_all_covers_catalog(self):
        reports = run_all(order=10)
        assert [r.name for r in reports] == identity_names()
        assert all(r.passed for r in reports)

    def test_parameter_overrides(self):
        report = run_identity("jensen", order=10, p=2, j=0, r=3, n_max=5)
        assert report.passed
        assert report.params["p"] == 2

    def test_report_serialization(self):
        report = run_identity("catalan", order=10)
        obj = report.to_dict()
        assert obj["status"] == "pass"
        assert "elapsed_ms" not in obj

    def test_recorder_keeps_first_failure(self):
        rec = _Recorder()
        rec.expect(1, 1, "fine")
        rec.expect(2, 3, "broken here")
        rec.expect(4, 5, "later break")
        rec.require(False, "also ignored")
        assert rec.count == 4
        assert rec.first_failure.startswith("broken here")
        report = IdentityReport(
            name="x", params={}, order=5, status="fail",
            first_failure=rec.first_failure, elapsed_ms=0.0,
        )
        assert not report.passed


class TestEntryChecks:
    @pytest.mark.parametrize(
        "name, params",
        [
            ("rothe-hagen", {"p_range": ()}),
            ("abel", {"x_range": ()}),
            ("fuss-narayana", {"r_profiles": (), "s_profiles": ()}),
        ],
    )
    def test_zero_checks_fail(self, name, params):
        report = run_identity(name, **params)
        assert report.checks == 0
        assert report.status == "fail"
        assert report.first_failure == "no checks ran"
        assert "checks" not in report.to_dict()

    def test_checks_count_every_expectation(self):
        assert check_jensen().checks == 18
        assert check_jensen(n_max=0).checks == 2

    @pytest.mark.parametrize("r, s", [(1, 2), (1, 1), (0, 3)])
    def test_rational_expansion_frozen_value_reads_the_sum(self, r, s):
        # at n_max = 0 the loop reads only a^0 b^0, where every term is 1;
        # the second check is the triple-product sum at r = s = 1, a^1 b^1
        report = run_identity("rational-expansion", n_max=0, r=r, s=s)
        assert report.passed
        assert report.checks == 2

    def test_schur_jabotinsky_reverts_each_series_once(self, monkeypatch):
        calls = []
        reversion = PowerSeries.reversion

        def counted(f):
            calls.append(f)
            return reversion(f)

        trial_series = []
        pair = identities.schur_jabotinsky_pair

        def recorded(f, n, k):
            trial_series.append(f)
            return pair(f, n, k)

        monkeypatch.setattr(PowerSeries, "reversion", counted)
        monkeypatch.setattr(identities, "schur_jabotinsky_pair", recorded)
        report = check_schur_jabotinsky(trials=20, order=20)
        assert report.passed and report.checks == 122
        # x c(x) once, at the full order, then each of the 20 random series
        # once, truncated to the order its (n, k) reads; two truncated
        # series can be equal, so each call is matched to its own series
        assert len(calls) == 21 and len(trial_series) == 20
        x = PowerSeries([0, 1], 20)
        assert calls[0] == x * catalan_series(20) and calls[0].order == 20
        for reverted, f in zip(calls[1:], trial_series):
            assert reverted == f.truncated(reverted.order)

    def test_schur_jabotinsky_worked_pair_forms_each_power_once(
        self, monkeypatch
    ):
        laurent_powers = []
        power = _Series.__pow__

        def counted(s, k):
            if isinstance(s, LaurentSeries):
                laurent_powers.append(k)
            return power(s, k)

        monkeypatch.setattr(_Series, "__pow__", counted)
        report = check_schur_jabotinsky(trials=0, order=20)
        assert report.passed and report.checks == 102
        # f0^k for 10 values of k and g0^(-n) for 10 values of n
        assert len(laurent_powers) <= 20

    @pytest.mark.parametrize(
        "name, params",
        [
            ("jensen", {"n_max": -1}),
            ("jensen", {"n_max": N_MAX_LIMIT + 1}),
            ("hirzebruch-residue", {"n_max": -1}),
            ("catalan", {"conv_n_max": N_MAX_LIMIT + 1}),
            ("catalan", {"conv_n_max": -1}),
            ("narayana", {"degree_bound": -1}),
            ("narayana", {"degree_bound": DEGREE_BOUND_LIMIT + 1}),
            ("fuss-narayana", {"degree_bound": -1}),
            ("fuss-narayana", {"degree_bound": DEGREE_BOUND_LIMIT + 1}),
            ("raney", {"i_total_max": -1}),
            ("raney", {"i_total_max": I_TOTAL_MAX_LIMIT + 1}),
            # 2 * 0 - min(k_values) leaves a negative degree bound
            ("raney", {"i_total_max": 0}),
            ("raney", {"i_total_max": 1, "k_values": (3,)}),
            # these suites divide by k: a k below 1 is rejected up front
            ("narayana", {"k_values": (0,)}),
            ("narayana", {"k_values": (1, -2)}),
            ("fuss-narayana", {"k_values": (0,)}),
            ("p-l", {"k_values": (0,)}),
            ("raney", {"k_values": ()}),
            ("raney", {"k_values": (0,)}),
            ("raney", {"k_values": (2, 0)}),
            # each below its suite's min_order
            ("p-l", {"order": 3}),
            ("q-l", {"order": 2}),
            ("tree-function", {"order": MAX_ORDER + 1}),
            ("p-l", {"order": MAX_ORDER + 1}),
            ("schur-jabotinsky", {"trials": -1}),
            ("schur-jabotinsky", {"trials": TRIALS_LIMIT + 1}),
            ("finite-difference-lemma", {"trials": -1}),
            ("finite-difference-lemma", {"trials": TRIALS_LIMIT + 1}),
            ("hirzebruch-residue", {"pair_trials": -1}),
            ("hirzebruch-residue", {"pair_trials": PAIR_TRIALS_LIMIT + 1}),
            # each size argument is checked, whatever the others hold
            ("hirzebruch-residue", {"n_max": N_MAX_LIMIT + 1}),
            ("hirzebruch-residue", {"n_max": N_MAX_LIMIT, "pair_trials": -1}),
            (
                "hirzebruch-residue",
                {"n_max": N_MAX_LIMIT + 1, "pair_trials": PAIR_TRIALS_LIMIT},
            ),
            ("r-m", {"order": 3}),
            ("r-m", {"order": MAX_ORDER + 1}),
            ("r-m", {"m_max": -1}),
            ("r-m", {"m_max": M_MAX_LIMIT + 1}),
            ("r-m", {"series_m_max": -1}),
            ("r-m", {"series_m_max": SERIES_M_MAX_LIMIT + 1}),
            ("p-l", {"l_max": -1}),
            ("p-l", {"l_max": L_MAX_LIMIT + 1}),
            ("q-l", {"l_max": -1}),
            ("q-l", {"l_max": L_MAX_LIMIT + 1}),
            ("weighted-stirling", {"j_max": -1}),
            ("weighted-stirling", {"j_max": J_MAX_LIMIT + 1}),
            ("finite-difference-lemma", {"d_max": -1}),
            ("finite-difference-lemma", {"d_max": D_MAX_LIMIT + 1}),
            ("fuss-catalan", {"inverse_order": MAX_ORDER + 1}),
            ("fuss-catalan", {"small_order": MAX_ORDER + 1}),
        ],
    )
    def test_size_arguments_out_of_range(self, name, params, monkeypatch):
        def no_work(*args):
            raise AssertionError("the suite started its work")

        monkeypatch.setattr(identities, "solve_indeterminate", no_work)
        monkeypatch.setattr(identities, "tree_function", no_work)
        monkeypatch.setattr(identities, "fuss_catalan_series", no_work)
        monkeypatch.setattr(identities, "finite_difference", no_work)
        monkeypatch.setattr(identities._Recorder, "expect", no_work)
        monkeypatch.setattr(identities._Recorder, "require", no_work)
        with pytest.raises(SizeLimit):
            run_identity(name, **params)

    @pytest.mark.parametrize(
        "name, key, limit",
        [
            ("fuss-narayana", "degree_bound", DEGREE_BOUND_LIMIT),
            ("raney", "i_total_max", I_TOTAL_MAX_LIMIT),
        ],
    )
    def test_degree_limits_are_inclusive(self, name, key, limit):
        report = run_identity(name, **{key: limit})
        assert report.passed
        assert report.params[key] == limit

    @pytest.mark.parametrize(
        "name, params",
        [
            ("schur-jabotinsky", {"trials": TRIALS_LIMIT}),
            ("finite-difference-lemma", {"trials": TRIALS_LIMIT}),
            ("hirzebruch-residue", {"pair_trials": PAIR_TRIALS_LIMIT}),
            ("hirzebruch-residue", {"pair_trials": 0}),
            ("hirzebruch-residue", {"n_max": N_MAX_LIMIT, "pair_trials": 2}),
            ("r-m", {"order": 4, "series_m_max": 3}),
            ("r-m", {"order": 4, "m_max": 3, "series_m_max": 6}),
            ("r-m", {"m_max": M_MAX_LIMIT}),
            ("r-m", {"series_m_max": SERIES_M_MAX_LIMIT}),
            ("p-l", {"l_max": L_MAX_LIMIT}),
            ("q-l", {"l_max": L_MAX_LIMIT}),
            ("weighted-stirling", {"j_max": J_MAX_LIMIT}),
            ("finite-difference-lemma", {"d_max": D_MAX_LIMIT}),
            ("fuss-catalan", {"p_range": (2,), "inverse_order": MAX_ORDER}),
            ("fuss-catalan", {"p_range": (2,), "small_order": MAX_ORDER}),
            # a coefficient list longer than the order: T has valuation 1,
            # so the terms past the order do not reach the composition
            ("p-l", {"order": 4, "l_max": 5}),
            ("q-l", {"order": 3, "l_max": 5}),
            ("r-m", {"order": 4, "series_m_max": 6}),
            ("r-m", {"order": 5, "m_max": 5, "series_m_max": 5}),
        ],
    )
    def test_trial_and_pair_limits_are_inclusive(self, name, params):
        report = run_identity(name, **params)
        assert report.passed
        for key, value in params.items():
            # a report's params leave out the order
            assert key == "order" or report.params[key] == value

    def test_conv_n_max_limit_is_inclusive(self):
        report = run_identity("catalan", order=3, conv_n_max=N_MAX_LIMIT)
        assert report.passed
        assert report.params["conv_n_max"] == N_MAX_LIMIT

    def test_order_below_minimum(self):
        with pytest.raises(SizeLimit, match="needs order >= 3"):
            check_catalan_suite(order=2)
        assert check_catalan_suite(order=3).passed

    def test_order_cap_is_the_clis_and_inclusive(self):
        # one constant caps the API and the CLI's --order
        assert cli.MAX_ORDER is MAX_ORDER == 200
        with pytest.raises(SizeLimit, match="order = 201 exceeds the limit 200"):
            run_identity("catalan", order=MAX_ORDER + 1)
        assert run_identity("fc-polynomial", order=MAX_ORDER).passed


def _plant_product_defect(monkeypatch):
    """Every series product of nine or more entries reads one too many at
    x^9."""
    product = series._product

    def planted(a, b_terms, length):
        out = product(a, b_terms, length)
        if length > 9:
            out[9] += 1
        return out

    monkeypatch.setattr(series, "_product", planted)


def _plant_stirling_defect(monkeypatch):
    """Make R(5, 3, k) one too large, which r_2 reads."""
    stirling = identities.weighted_stirling

    def planted(n, j, k):
        value = stirling(n, j, k)
        return value + 1 if (n, j) == (5, 3) else value

    monkeypatch.setattr(identities, "weighted_stirling", planted)


class TestSelfChecks:
    SUBSTITUTION = "fixed point failed the substitution check"

    def test_planted_product_defect_fails_reports(self, monkeypatch):
        _plant_product_defect(monkeypatch)
        reports = {name: run_identity(name, order=14) for name in identity_names()}
        failed = {name for name, report in reports.items() if not report.passed}
        # nine suites reach solve_xR, whose substitution check now fails
        # inside the suite: eight report it, and fc-polynomial reports its
        # vanishing check, which fails before the solve
        by_self_check = {
            "catalan", "fuss-catalan", "lacasse", "p-l", "q-l", "r-m",
            "schur-jabotinsky", "tree-function",
        }
        assert by_self_check | {"fc-polynomial"} <= failed
        for name in by_self_check:
            assert reports[name].first_failure == self.SUBSTITUTION, name
        assert reports["fc-polynomial"].first_failure.startswith(
            "vanishing coefficient at m=9"
        )

    def test_planted_product_defect_exits_2_on_one_line(self, monkeypatch, capsys):
        _plant_product_defect(monkeypatch)
        out = io.StringIO()
        assert cli.main(["coeffs", "--R", "exp"], out=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == "error: %s\n" % self.SUBSTITUTION

    @pytest.mark.parametrize("order", [4, 14])
    def test_planted_stirling_defect_fails_r_m(self, monkeypatch, order):
        _plant_stirling_defect(monkeypatch)
        report = run_identity("r-m", order=order)
        assert report.status == "fail"
        assert report.first_failure == "u degree exactly m at m=2"

    def test_planted_stirling_defect_exits_1(self, monkeypatch):
        _plant_stirling_defect(monkeypatch)
        out = io.StringIO()
        assert cli.main(["identity", "r-m"], out=out) == 1
        assert "u degree exactly m at m=2" in out.getvalue()

    def test_suite_records_a_self_check_as_one_failed_check(self, monkeypatch):
        def failing(order):
            raise SelfCheckFailed("planted self-check")

        monkeypatch.setattr(identities, "tree_function", failing)
        report = run_identity("tree-function", order=10)
        assert report.status == "fail"
        assert report.first_failure == "planted self-check"
        assert report.checks == 1

    def test_suite_catches_no_other_error(self, monkeypatch):
        def failing(order):
            raise OutOfPrecision("not a self-check")

        monkeypatch.setattr(identities, "tree_function", failing)
        with pytest.raises(OutOfPrecision, match="not a self-check"):
            run_identity("tree-function", order=10)

    def test_tree_formula_checks_are_typed(self, monkeypatch):
        # a multinomial of 1 makes k/n times it a non-integer at n = 3, k = 1
        monkeypatch.setattr(trees, "multinomial", lambda n, parts: 1)
        with pytest.raises(SelfCheckFailed, match="non-integer"):
            trees.ordered_forest_profile_formula(3, 1, {0: 2, 2: 1})
        # a 2! of 2 and a 3! of 1 make 3!/(1! 2!) read 1/2
        monkeypatch.setattr(trees, "factorial", lambda m: 2 if m == 2 else 1)
        with pytest.raises(SelfCheckFailed, match="non-integer"):
            trees.labeled_forest_shape_formula(4, 1, {0: 2, 1: 1, 2: 1})
        assert issubclass(SelfCheckFailed, LagrangeKitError)


class TestGeneratingSeries:
    def test_catalan_series(self):
        c = catalan_series(8)
        assert c.coeffs == (1, 1, 2, 5, 14, 42, 132, 429)

    def test_fuss_catalan_extends_catalan(self):
        assert fuss_catalan_series(2, 8) == catalan_series(8)
        c3 = fuss_catalan_series(3, 7)
        assert c3.coeffs == (1, 1, 3, 12, 55, 273, 1428)

    def test_negative_parameter(self):
        # c_0 = 1 + x and c_{-1} solves c = 1 + x/c
        c0 = fuss_catalan_series(0, 6)
        assert c0 == PowerSeries([1, 1], 6)
        cm = fuss_catalan_series(-1, 6)
        assert cm * cm == cm + PowerSeries([0, 1], 6) * cm ** 0 * 1  # c^2 = c + x

    def test_tree_function(self):
        t = tree_function(7)
        assert [t.coeff(n) * _fact(n) for n in range(7)] == [
            0, 1, 2, 9, 64, 625, 7776,
        ]


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _reference_binomial_convolutions(rec, p, k_values, l_values, n_max):
    """Both convolution identities summed directly in Fractions, one
    fresh product per term; reads identities.int_binomial when called."""
    C = identities.int_binomial
    for k in k_values:
        for l in l_values:
            for n in range(n_max + 1):
                if any(p * i + k == 0 for i in range(n + 1)):
                    continue
                lhs = sum(
                    Fraction(k, p * i + k) * C(p * i + k, i) * C(p * (n - i) + l, n - i)
                    for i in range(n + 1)
                )
                rec.expect(
                    lhs,
                    C(p * n + k + l, n),
                    "mixed form at p=%d k=%d l=%d n=%d" % (p, k, l, n),
                )
                if p * n + k + l == 0 or any(
                    p * (n - i) + l == 0 for i in range(n + 1)
                ):
                    continue
                lhs = sum(
                    Fraction(k, p * i + k)
                    * C(p * i + k, i)
                    * Fraction(l, p * (n - i) + l)
                    * C(p * (n - i) + l, n - i)
                    for i in range(n + 1)
                )
                rec.expect(
                    lhs,
                    Fraction(k + l, p * n + k + l) * C(p * n + k + l, n),
                    "cycle form at p=%d k=%d l=%d n=%d" % (p, k, l, n),
                )


# a range inside -8..8 through 0, so every p has a pole at k = 0 and the
# wider ones reach the poles k = -p, -2p, ...
_through_zero = st.builds(
    lambda lo, hi: range(lo, hi + 1),
    st.integers(min_value=-8, max_value=0),
    st.integers(min_value=0, max_value=8),
)


class TestBinomialConvolutions:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=5),
        k_values=_through_zero,
        l_values=_through_zero,
        n_max=st.integers(min_value=0, max_value=12),
        shift=st.one_of(
            st.none(),
            st.tuples(st.integers(min_value=-8, max_value=68), st.integers(0, 12)),
        ),
    )
    def test_matches_direct_sums(self, p, k_values, l_values, n_max, shift):
        # shift, when drawn, puts int_binomial off by one at one argument,
        # so failing runs must agree on their first failure as well
        def binomial(a, i):
            return int_binomial(a, i) + ((a, i) == shift)

        runs = []
        with mock.patch.object(identities, "int_binomial", binomial):
            for run in (_binomial_convolutions, _reference_binomial_convolutions):
                rec = _Recorder()
                run(rec, p, k_values, l_values, n_max)
                runs.append((rec.count, rec.first_failure is None, rec.first_failure))
        assert runs[0] == runs[1]
        if shift is None:
            assert runs[0][1]

    def test_left_hand_tables_feed_a_real_check(self, monkeypatch):
        # C(13, 5) is the i = 5 term of C(2i + 3, i) (p = 2, k = 3); catalan
        # at order 3 reaches it only through its convolutions
        def off_by_one(a, i):
            return int_binomial(a, i) + ((a, i) == (13, 5))

        monkeypatch.setattr(identities, "int_binomial", off_by_one)
        for report in (check_rothe_hagen(), check_catalan_suite(order=3, conv_n_max=8)):
            assert not report.passed
            label = report.first_failure.split(":")[0]
            found = re.fullmatch(
                r"(?:mixed|cycle) form at p=(\d+) k=(-?\d+) l=(-?\d+) n=(\d+)", label
            )
            assert found, report.first_failure
            p, k, l, n = map(int, found.groups())
            # the right-hand side reads C(pn + k + l, n) alone, so a failure
            # there at another argument is a left-hand term that is off
            assert (p * n + k + l, n) != (13, 5)


class TestNarayanaFamily:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        factors=st.lists(
            st.tuples(st.sampled_from((1, 2)), st.booleans()), min_size=1, max_size=3
        ),
        k_values=st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
        bound=st.integers(0, 4),
    )
    def test_closed_form_holds_for_every_factor_list(self, factors, k_values, bound):
        rec = _Recorder()
        f = _narayana_family(rec, tuple(factors), k_values, bound)
        assert rec.first_failure is None
        m = len(factors)
        assert rec.count == len(k_values) * comb(bound + m, m)
        # f (1 - x_t f)^e over the reciprocal factors equals the product of
        # the plus factors (1 + x_t f)^e, through the bound
        ring = PolyRing(*f.vars)
        lhs, rhs = f, ring.one()
        for x, (e, plus) in zip(ring.gens(), factors):
            if plus:
                rhs = rhs * (1 + x * f) ** e
            else:
                lhs = lhs * (1 - x * f) ** e
        assert lhs.truncate_total(bound) == rhs.truncate_total(bound)


class TestWeightedStirling:
    def test_small_table(self):
        # R(n, j, k) at k = 0 reduces to the plain Stirling triangle
        assert weighted_stirling(4, 2, 0) == 7
        assert weighted_stirling(3, 3, 0) == 1
        assert weighted_stirling(3, 0, 0) == 0

    def test_shifted_values(self):
        assert weighted_stirling(3, 1, 1) == 7
        assert weighted_stirling(2, 0, 5) == 25  # k^n when j = 0

    def test_symbolic_parameter(self):
        ring = PolyRing("k")
        k = ring.var("k")
        sym = weighted_stirling(3, 1, k)
        for v in range(5):
            assert sym.subs({"k": v}).constant_value() == weighted_stirling(3, 1, v)


class TestPrintedTables:
    def test_p_tables(self):
        ring = PolyRing("u", "k")
        u, k = ring.gens()
        p1 = compute_p_l(1)
        assert p1.num == ring.one() and p1.den == k
        p2 = compute_p_l(2)
        assert p2.num * (k ** 2 * (k + 1)) == ((k + 1) - u * k) * p2.den

    def test_q_tables(self):
        ring = PolyRing("u")
        u = ring.var("u")
        assert compute_q_l(1) == ring.one()
        assert compute_q_l(2) == 1 - u / 2
        assert compute_q_l(3) == 1 - 3 * u / 4 + u ** 2 / 6

    def test_r_tables(self):
        ring = PolyRing("u", "k")
        u, k = ring.gens()
        assert compute_r_m(0) == ring.one()
        assert compute_r_m(1) == k + (1 - k) * u
        r2 = compute_r_m(2)
        assert r2 == k ** 2 + (1 + 3 * k - 2 * k ** 2) * u + (
            2 - 3 * k + k ** 2
        ) * u ** 2

    def test_r_row_sums_are_double_factorials(self):
        # at k = 1 the u-coefficients are the second-order Eulerian rows
        for m, want in [(0, 1), (1, 1), (2, 3), (3, 15), (4, 105)]:
            rm = compute_r_m(m).subs({"k": 1})
            total = sum(
                rm.coefficient((d, 0)) for d in range(m + 1)
            )
            assert total == want


def _termwise_residue(a, g):
    """res a(g) g' as the sum of a_n ((g^n) g').residue(), with one ** per
    exponent n."""
    gl = g.to_laurent()
    gp = g.derivative().to_laurent()
    total = Fraction(0)
    for n in range(a.min_exponent, a.order):
        if a.coeff(n):
            total += a.coeff(n) * ((gl ** n) * gp).residue()
    return total


_small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


class TestResidueAfter:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        order=st.integers(min_value=8, max_value=16),
        min_exponent=st.integers(min_value=-3, max_value=0),
        a_coeffs=st.lists(_small_fractions, max_size=10),
        valuation=st.integers(min_value=1, max_value=3),
        lead=st.sampled_from([1, -1, 2, Fraction(1, 3)]),
        g_tail=st.lists(_small_fractions, max_size=12),
    )
    def test_power_walk_matches_one_power_per_exponent(
        self, order, min_exponent, a_coeffs, valuation, lead, g_tail
    ):
        a = LaurentSeries(a_coeffs[: order - min_exponent], min_exponent, order)
        g = PowerSeries(([0] * valuation + [lead] + g_tail)[:order], order)
        got = _residue_after(a, g)
        want = _termwise_residue(a, g)
        assert got == want
        assert type(got) is type(want)


class TestPolynomialityDetails:
    def test_two_stack_sortable_details(self):
        report = check_fc_polynomiality(p=3, i=0, j=2, order=20)
        assert report.passed
        details = report.details
        assert details["branch"] == "vanishing"
        assert details["empirical"] is False
        assert details["polynomial"] == [2, -1]
        assert details["scale"] == 4
        assert details["degree"] == 1

    def test_damped_branch_is_empirical(self):
        report = check_fc_polynomiality(p=2, i=2, j=1, order=20)
        assert report.passed
        assert report.details["branch"] == "damped"
        assert report.details["empirical"] is True

    def test_details_survive_serialization(self):
        report = check_fc_polynomiality(p=3, i=0, j=2, order=16)
        obj = report.to_dict()
        assert obj["details"]["polynomial"] == [2, -1]
        assert obj["details"]["scale"] == "4"


class TestFiniteDifference:
    def test_basic_rules(self):
        # the value is the k-th forward difference at the window's left end
        assert finite_difference([0, 1, 4, 9], 2) == 2
        assert finite_difference([5, 5, 5], 1) == 0
        assert finite_difference([1, 2], 0) == 1
        assert finite_difference([0, 1, 8, 27, 64], 4) == 0

    def test_window_too_short(self):
        with pytest.raises(InsufficientRange):
            finite_difference([1, 2], 3)

    def test_negative_order_is_a_size_limit(self):
        with pytest.raises(SizeLimit, match="nonnegative"):
            finite_difference([1, 2], -1)


class TestDefaultsMatchCatalog:
    def test_catalog_defaults_run(self):
        # run_identity passes nothing but order, so every public parameter
        # needs a default, and the recorder the body takes must not show
        for name, func in IDENTITY_CATALOG.items():
            params = inspect.signature(func).parameters
            assert "rec" not in params, name
            for param in params.values():
                assert param.default is not param.empty, (name, param.name)

    def test_fc_polynomial_default_params(self):
        report = run_identity("fc-polynomial", order=16)
        assert report.params["p"] == 3
        assert report.params["i"] == 0
        assert report.params["j"] == 2
