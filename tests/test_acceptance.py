"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
criterion with a stated wall-clock budget also enforces it.
"""

import random
import time
from fractions import Fraction
from itertools import product

from lagrange_kit.identities import (
    check_catalan_suite,
    check_fc_polynomiality,
    check_fuss_catalan,
    check_hirzebruch,
    check_jensen,
    check_p_l,
    check_q_l,
    check_r_m,
    check_raney,
    check_rothe_hagen,
    check_schur_jabotinsky,
    check_tree_function_suite,
    compute_p_l,
    compute_q_l,
)
from lagrange_kit.lagrange import (
    cauchy_convolution_check,
    derivative_form,
    inversion_form_sweep,
    solve_indeterminate,
)
from lagrange_kit.scalars import PolyRing
from lagrange_kit.series import LaurentSeries, PowerSeries, compose
from lagrange_kit.trees import (
    count_by_profile,
    count_degree_trees,
    count_labeled_forests,
    cycle_lemma_count,
    degree_sequences,
    degree_trees_formula,
    enumerate_labeled_trees,
    labeled_forest_child_formula,
    labeled_forest_profile_count,
    labeled_forest_profile_formula,
    ordered_forest_profile_formula,
    ordered_profiles,
    prufer_decode,
    prufer_encode,
)


def _finish(number, label, started, failures, bound=None):
    elapsed = time.perf_counter() - started
    status = "FAIL" if failures else "PASS"
    budget = "" if bound is None else ", bound %ds" % bound
    print("%s criterion %d: %s (%.2fs%s)" % (status, number, label, elapsed, budget))
    assert not failures, "criterion %d: %s" % (number, "; ".join(failures[:5]))
    if bound is not None:
        assert elapsed < bound, (
            "criterion %d exceeded its %ds budget (%.2fs)" % (number, bound, elapsed)
        )


def _rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def test_criterion_01_five_extraction_forms_agree():
    started = time.perf_counter()
    failures = []
    rng = random.Random(101)
    order = 28
    n_values = range(-6, 21)
    for trial in range(50):
        R = PowerSeries([Fraction(1)] + [_rational(rng) for _ in range(4)], order)
        min_exp = rng.randint(-3, 0)
        tail = [_rational(rng) for _ in range(8)]
        if not any(tail):
            tail[0] = Fraction(1)
        phi = LaurentSeries(tail, min_exp, order)
        for fv in inversion_form_sweep(phi, R, n_values):
            if not fv.agree:
                failures.append("trial %d at n=%d" % (trial, fv.n))
                break
    _finish(1, "five extraction forms agree on 50 random pairs", started,
            failures, bound=10)


def test_criterion_02_reversion_round_trips():
    started = time.perf_counter()
    failures = []
    rng = random.Random(202)
    order = 25
    x = PowerSeries([0, 1], order)
    for trial in range(100):
        lead = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        coeffs = [0, lead] + [_rational(rng) for _ in range(order - 2)]
        f = PowerSeries(coeffs, order)
        g = f.reversion()
        if compose(f, g) != x or compose(g, f) != x:
            failures.append("trial %d" % trial)
    _finish(2, "100 reversion round trips at order 25", started, failures,
            bound=5)


def test_criterion_03_catalan_suite():
    started = time.perf_counter()
    failures = []
    report = check_catalan_suite(order=51, conv_n_max=40)
    if not report.passed:
        failures.append(report.first_failure)
    _finish(3, "catalan power forms to n = 50 with convolutions to n = 40",
            started, failures, bound=5)


def test_criterion_04_tree_function_suite():
    started = time.perf_counter()
    failures = []
    report = check_tree_function_suite(order=31)
    if not report.passed:
        failures.append(report.first_failure)
    _finish(4, "tree function suite to n = 30 with Abel grid", started,
            failures, bound=10)


def test_criterion_05_printed_polynomial_tables():
    started = time.perf_counter()
    failures = []
    for report in (check_p_l(), check_q_l(), check_r_m()):
        if not report.passed:
            failures.append("%s: %s" % (report.name, report.first_failure))
    for p in (2, 3):
        for i in (0, 1, 2):
            for d in (1, 2, 3):
                report = check_fc_polynomiality(p=p, i=i, j=i + d, order=16)
                if not report.passed:
                    failures.append(
                        "u table at p=%d i=%d d=%d: %s"
                        % (p, i, d, report.first_failure)
                    )
    # q_l must be the k = 1 slice of p_l, certified on a point grid
    for l in (1, 2, 3):
        p_l = compute_p_l(l)
        q_l = compute_q_l(l)
        for u0 in range(l + 1):
            num = p_l.num.subs({"u": u0, "k": 1}).constant_value()
            den = p_l.den.subs({"u": u0, "k": 1}).constant_value()
            if q_l.subs({"u": u0}).constant_value() * den != num:
                failures.append("q_%d != p_%d at k=1, u=%d" % (l, l, u0))
    _finish(5, "printed p, q, r, and u tables reproduced exactly", started,
            failures)


def test_criterion_06_fuss_catalan_suite():
    started = time.perf_counter()
    failures = []
    report = check_fuss_catalan(order=31, inverse_order=20, small_order=15)
    if not report.passed:
        failures.append(report.first_failure)
    report = check_rothe_hagen()
    if not report.passed:
        failures.append(report.first_failure)
    for p in range(0, 5):
        for j in range(-6, 7):
            for r in range(-6, 7):
                report = check_jensen(p=p, j=j, r=r, n_max=8)
                if not report.passed:
                    failures.append(
                        "jensen p=%d j=%d r=%d: %s"
                        % (p, j, r, report.first_failure)
                    )
    _finish(6, "fuss-catalan, rothe-hagen, and jensen grids", started,
            failures, bound=15)


def test_criterion_07_two_stack_sortable_polynomial():
    started = time.perf_counter()
    failures = []
    report = check_fc_polynomiality(p=3, i=0, j=2, order=20)
    if not report.passed:
        failures.append(report.first_failure)
    else:
        details = report.details
        if details["polynomial"] != [2, -1]:
            failures.append("polynomial %r is not 2 - x" % details["polynomial"])
        if details["scale"] != 4:
            failures.append("scale %r is not 4" % details["scale"])
        if details["branch"] != "vanishing" or details["degree"] != 1:
            failures.append("wrong branch report")
    _finish(7, "weight sum collapses to (2 - x)/4 and resubstitutes", started,
            failures)


def test_criterion_08_combinatorial_oracles():
    started = time.perf_counter()
    failures = []

    bound = 8
    names = tuple("r%d" % i for i in range(bound))
    ring = PolyRing(*names)
    R = PowerSeries(list(ring.gens()), bound)
    f = solve_indeterminate(R, bound)
    fk = ring.one()
    for k in range(1, 4):
        fk = (fk * f).truncate_total(bound)
        for n in range(k, bound + 1):
            for profile in ordered_profiles(n, k):
                counts = dict(profile)
                census = count_by_profile(n, k, counts)
                formula = ordered_forest_profile_formula(n, k, counts)
                engine = fk.coefficient(
                    tuple(counts.get(i, 0) for i in range(bound))
                )
                if not census == formula == engine:
                    failures.append(
                        "ordered n=%d k=%d %r: %d %d %s"
                        % (n, k, profile, census, formula, engine)
                    )

    for n in range(1, 7):
        for k in range(1, n + 1):
            for profile in ordered_profiles(n, k):
                counts = dict(profile)
                if labeled_forest_profile_count(
                    n, k, counts
                ) != labeled_forest_profile_formula(n, k, counts):
                    failures.append("labeled profile n=%d k=%d" % (n, k))
            for e in _compositions(n - k, n):
                if count_labeled_forests(n, k, e) != labeled_forest_child_formula(
                    n, k, e
                ):
                    failures.append("labeled child n=%d k=%d e=%r" % (n, k, e))

    for m in range(2, 8):
        total = 0
        for degs in degree_sequences(m):
            census = count_degree_trees(m, degs)
            if census != degree_trees_formula(m, degs):
                failures.append("degree trees m=%d d=%r" % (m, degs))
            total += census
        if total != m ** (m - 2):
            failures.append("degree total m=%d" % m)

    for m in range(2, 7):
        forest = enumerate_labeled_trees(m)
        if len(forest) != m ** (m - 2):
            failures.append("tree total m=%d" % m)
        for edges in forest:
            if prufer_decode(prufer_encode(edges, m)) != edges:
                failures.append("prufer decode(encode) m=%d" % m)
                break
        for code in product(range(1, m + 1), repeat=m - 2):
            if prufer_encode(prufer_decode(code, m), m).entries != code:
                failures.append("prufer encode(decode) m=%d" % m)
                break

    alphabet = (-1, 0, 1, 2)
    for length in range(1, 9):
        for seq in product(alphabet, repeat=length):
            total = sum(seq)
            if total >= 0:
                continue
            if cycle_lemma_count(seq) != -total:
                failures.append("cycle lemma %r" % (seq,))
                break

    _finish(8, "forest, tree, code, and cycle censuses match every formula",
            started, failures, bound=60)


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_09_raney_profile_weights():
    started = time.perf_counter()
    failures = []
    report = check_raney(i_total_max=5, k_values=(1, 2))
    if not report.passed:
        failures.append(report.first_failure)
    _finish(9, "raney weights match the two-term exponential fixed point",
            started, failures)


def test_criterion_10_residue_invariance():
    started = time.perf_counter()
    failures = []
    report = check_hirzebruch(n_max=20, pair_trials=30)
    if not report.passed:
        failures.append(report.first_failure)
    _finish(10, "todd-class residues and change of variables", started,
            failures)


def test_criterion_11_shifted_derivative_expansions():
    started = time.perf_counter()
    failures = []
    rng = random.Random(1111)
    order = 14
    for trial in range(20):
        mk = lambda: PowerSeries(
            [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
             for _ in range(order)],
            order,
        )
        phi, psi, H = mk(), mk(), mk()
        if not derivative_form(phi, H, 6, psi=psi).agree:
            failures.append("expansion trial %d" % trial)
        for n in range(6):
            if not cauchy_convolution_check(phi, psi, H, n):
                failures.append("convolution trial %d at n=%d" % (trial, n))
    _finish(11, "derivative expansions through z^6 with convolutions",
            started, failures)


def test_criterion_12_power_coefficient_duality():
    started = time.perf_counter()
    failures = []
    report = check_schur_jabotinsky(trials=20, order=20)
    if not report.passed:
        failures.append(report.first_failure)
    _finish(12, "power-coefficient duality on worked and random pairs",
            started, failures)
