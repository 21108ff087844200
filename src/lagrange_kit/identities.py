"""Named verification suites for classical coefficient identities.

Each public ``check_*`` routine exercises one family of identities over
exact rational (or polynomial) arithmetic and returns an
``IdentityReport``; nothing is thrown on a mathematical failure, the
report carries the first counterexample instead.

A suite is a body ``body(rec, ...)`` declared with ``@identity(name,
min_order)``, which registers it in ``IDENTITY_CATALOG`` with the body's
signature minus ``rec``.  Each call raises ``SizeLimit`` before any work
for a size argument outside 0 up to its limit in ``SIZE_LIMITS`` (``n_max``,
``conv_n_max``, ``degree_bound``, ``i_total_max``, ``trials``,
``pair_trials``, ``m_max``, ``series_m_max``, ``l_max``, ``j_max``,
``d_max``, and ``fuss-catalan``'s ``inverse_order`` and ``small_order``) or
an ``order`` outside ``min_order`` up to ``MAX_ORDER``, the cap that the
CLI's ``--order`` shares.  The report's ``params`` are the bound arguments
minus ``order`` and its ``checks`` count every ``rec.expect`` and
``rec.require``; a run with no check fails.  A ``SelfCheckFailed`` raised
in the body, such as a fixed point that fails its substitution check, ends
the run as one more failed check carrying its message.  A body overwrites
``rec.order``, ``rec.params`` or ``rec.details`` where its report differs.

Polynomial identities in free parameters are certified by evaluating on
integer grids exceeding the polynomial degree, so a passing grid is a
proof, not a heuristic.

Each closed form is written once: ``_narayana_family`` checks the
multivariate formula for f = prod (1 + x_t f)^(e_t), with reciprocal
factors, for ``narayana`` and ``fuss-narayana``, and ``_power_family``
builds sum (n + k)^(n + s) x^n/n! for four suites.
"""

from __future__ import annotations

import functools
import inspect
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm
from operator import mul

from .errors import (
    InsufficientRange,
    SelfCheckFailed,
    SizeLimit,
    UnknownIdentity,
)
from .lagrange import (
    raney_coefficient,
    schur_jabotinsky_pair,
    schur_jabotinsky_window,
    solve_indeterminate,
    solve_xR,
)
from .scalars import (
    MultiPoly,
    PolyRing,
    format_rational,
    int_binomial,
    poly_eval,
    scalar_div_int,
    weighted_compositions,
)
from .series import LaurentSeries, PowerSeries, compose


# -- report plumbing ----------------------------------------------------------


def _json_value(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, MultiPoly):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, range):
        return list(v)
    if isinstance(v, dict):
        return {str(k): _json_value(x) for k, x in v.items()}
    return v


@dataclass
class IdentityReport:
    """Outcome of one identity check; ``status`` is "pass" or "fail".

    ``checks`` counts the equalities and conditions the suite tested
    (None on a report built by hand); it stays out of ``to_dict()``."""

    name: str
    params: dict
    order: int
    status: str
    first_failure: str | None
    elapsed_ms: float
    details: dict | None = None
    checks: int | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {
            "identity": self.name,
            "params": _json_value(self.params),
            "order": self.order,
            "status": self.status,
            "first_failure": self.first_failure,
        }
        if self.details is not None:
            out["details"] = _json_value(self.details)
        return out


class _Recorder:
    """Collects equality checks, keeping the first failure only; it also
    carries the report fields a suite body may overwrite (``params``,
    ``order`` and ``details``)."""

    __slots__ = ("first_failure", "count", "params", "order", "details")

    def __init__(self, params=None, order=None):
        self.first_failure = None
        self.count = 0
        self.params = {} if params is None else params
        self.order = order
        self.details = None

    def expect(self, lhs, rhs, label: str) -> None:
        self.count += 1
        if self.first_failure is None and lhs != rhs:
            self.first_failure = "%s: %s != %s" % (label, lhs, rhs)

    def require(self, condition: bool, label: str) -> None:
        self.count += 1
        if self.first_failure is None and not condition:
            self.first_failure = label


# the largest n_max or conv_n_max a suite accepts: at 50 the slowest checks,
# abel and rothe-hagen, take 0.24-0.27 s through the CLI on a 2-core host,
# hirzebruch-residue 0.16 s
N_MAX_LIMIT = 50
# the largest degree_bound: at 15 narayana takes 0.27 s in process on a
# 2-core host (0.39 s at 16), fuss-narayana 0.15 s (0.19 s at 16)
DEGREE_BOUND_LIMIT = 15
# the largest i_total_max: at 12 raney takes 0.25 s in process on a 2-core
# host (0.42 s at 13)
I_TOTAL_MAX_LIMIT = 12
# the largest order a suite accepts, through the API and the CLI alike: at
# 200 the slowest suite, r-m, takes 8-23 s on a 2-core host
MAX_ORDER = 200
# the largest trials: at 3000 schur-jabotinsky takes 0.8-0.9 s on a 2-core
# host at its default order 20, finite-difference-lemma 0.4-0.5 s
TRIALS_LIMIT = 3000
# the largest pair_trials: at 1200 hirzebruch-residue takes 0.9 s on a
# 2-core host
PAIR_TRIALS_LIMIT = 1200
# the largest m_max and series_m_max: at its default order 26, r-m takes
# 0.17 s in process at m_max 8 on a 2-core host (0.39 s at 10), 0.18 s at
# series_m_max 200 (0.40 s at 400)
M_MAX_LIMIT = 8
SERIES_M_MAX_LIMIT = 200
# the largest l_max: at its default order 30, p-l takes 0.28-0.39 s in
# process on a 2-core host (0.53-0.78 s at 11) and q-l 0.34 s (0.53-0.69 s)
L_MAX_LIMIT = 10
# the largest j_max: at its default order 30, weighted-stirling takes
# 0.45-0.51 s in process on a 2-core host (0.58-0.62 s at 35)
J_MAX_LIMIT = 30
# the largest d_max: at 20 and TRIALS_LIMIT finite-difference-lemma takes
# 4.4-5.0 s in process on a 2-core host (5.3 s at 21)
D_MAX_LIMIT = 20
SIZE_LIMITS = {
    "n_max": N_MAX_LIMIT,
    "conv_n_max": N_MAX_LIMIT,
    "degree_bound": DEGREE_BOUND_LIMIT,
    "i_total_max": I_TOTAL_MAX_LIMIT,
    "trials": TRIALS_LIMIT,
    "pair_trials": PAIR_TRIALS_LIMIT,
    "m_max": M_MAX_LIMIT,
    "series_m_max": SERIES_M_MAX_LIMIT,
    "l_max": L_MAX_LIMIT,
    "j_max": J_MAX_LIMIT,
    "d_max": D_MAX_LIMIT,
    # fuss-catalan's side orders: 1.2 s and 3.4 s at 200 on a 2-core host
    "inverse_order": MAX_ORDER,
    "small_order": MAX_ORDER,
}

IDENTITY_CATALOG: dict = {}


def _require_positive_k(k_values) -> None:
    """SizeLimit, before any work, for a k below 1 in the suites whose
    formulas divide by k: p-l, narayana, fuss-narayana and raney."""
    for k in k_values:
        if k < 1:
            raise SizeLimit("k_values entry %d is below 1" % k)


def identity(name: str, min_order: int = 1):
    """Register the suite body ``body(rec, ...)`` under ``name``; see the
    module docstring for what each call checks and reports."""

    def register(body):
        sig = inspect.signature(body)
        public = sig.replace(
            parameters=tuple(sig.parameters.values())[1:],
            return_annotation=IdentityReport,
        )

        @functools.wraps(body)
        def suite(*args, **kwargs) -> IdentityReport:
            bound = public.bind(*args, **kwargs)
            bound.apply_defaults()
            params = dict(bound.arguments)
            order = params.pop("order", None)
            for key, limit in SIZE_LIMITS.items():
                value = params.get(key)
                if value is not None and value < 0:
                    raise SizeLimit("%s = %d is negative" % (key, value))
                if value is not None and value > limit:
                    raise SizeLimit(
                        "%s = %d exceeds the limit %d" % (key, value, limit)
                    )
            if order is not None and order < min_order:
                raise SizeLimit(
                    "identity %r needs order >= %d, got %d" % (name, min_order, order)
                )
            if order is not None and order > MAX_ORDER:
                raise SizeLimit(
                    "order = %d exceeds the limit %d" % (order, MAX_ORDER)
                )
            rec = _Recorder(params, order)
            started = time.perf_counter()
            try:
                body(rec, *bound.args, **bound.kwargs)
            except SelfCheckFailed as exc:
                rec.require(False, str(exc))
            failure = rec.first_failure if rec.count else "no checks ran"
            return IdentityReport(
                name=name,
                params=rec.params,
                order=rec.order,
                status="pass" if failure is None else "fail",
                first_failure=failure,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
                details=rec.details,
                checks=rec.count,
            )

        suite.__signature__ = public
        IDENTITY_CATALOG[name] = suite
        return suite

    return register


# -- generating series builders ------------------------------------------------


def fuss_catalan_series(p: int, order: int) -> PowerSeries:
    """The unique series with c = 1 + x c^p (any integer p; c(0) = 1):
    c = 1 + f where f = x (1 + f)^p."""
    return 1 + solve_xR(PowerSeries([1, 1], order) ** p)


def catalan_series(order: int) -> PowerSeries:
    """c with c = 1 + x c^2, the Catalan generating function."""
    return fuss_catalan_series(2, order)


def tree_function(order: int) -> PowerSeries:
    """T with T = x e^T, the exponential series for rooted labeled trees."""
    return solve_xR(PowerSeries([0, 1], order).exp())


def _alternate(s: PowerSeries) -> PowerSeries:
    """s(-x)."""
    return PowerSeries(
        [c if i % 2 == 0 else -c for i, c in enumerate(s.coeffs)], s.order
    )


# -- rational functions of one parameter ---------------------------------------


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """num/den over MultiPoly; equality by cross multiplication."""

    num: MultiPoly
    den: MultiPoly

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __str__(self):
        return "(%s) / (%s)" % (self.num, self.den)

    def coefficients_at(self, k_value) -> list[Fraction]:
        """Ascending u-coefficients after substituting a number for k."""
        den = self.den.subs({"k": k_value})
        if not den.is_constant() or den.is_zero():
            raise ZeroDivisionError("parameter value hits a pole")
        d = den.constant_value()
        return [c / d for c in _u_coefficients(self.num, k_value)]


def _u_coefficients(poly: MultiPoly, k_value) -> list[Fraction]:
    """Ascending u-coefficients of a (u, k) polynomial at a numeric k."""
    sub = poly.subs({"k": k_value})
    iu = poly.vars.index("u")
    out = [Fraction(0)] * (sub.degree_in("u") + 1)
    for exps, c in sub.terms.items():
        out[exps[iu]] += c
    return out


# -- Catalan suite --------------------------------------------------------------


def _catalan_forms(k: int, n: int):
    """The four printed expressions for [x^n] c(x)^k; None marks an
    excluded index (n = -k/2 for the first, n = -k for the second)."""
    yield (
        None
        if 2 * n + k == 0
        else Fraction(k, 2 * n + k) * int_binomial(2 * n + k, n),
        "cycle form",
    )
    yield (
        None if n + k == 0 else Fraction(k, n + k) * int_binomial(2 * n + k - 1, n),
        "shifted cycle form",
    )
    yield (
        int_binomial(2 * n + k - 1, n) - int_binomial(2 * n + k - 1, n - 1),
        "ballot difference form",
    )
    yield (
        int_binomial(2 * n + k, n) - 2 * int_binomial(2 * n + k - 1, n - 1),
        "weighted difference form",
    )


def _exact_quotient(a: int, b: int):
    """a / b as an int when b divides a, else as a Fraction; None for b = 0."""
    if b == 0:
        return None
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _binomial_convolutions(
    rec: _Recorder, p: int, k_values, l_values, n_max: int
) -> None:
    """Both convolution identities for the generalized binomial sequences
    of parameter p; a (k, l, n) triple is skipped when a term hits an
    excluded index.

    Each left-hand side is a dot product over two term lists built once
    per call: C(pi+k, i) and the cycle-form k/(pi+k) C(pi+k, i), which is
    None at the excluded index pi + k = 0.  A cycle-form term is reduced
    once and held as an int when it is one, as [x^i] B_p(x)^k always is;
    the right-hand sides are computed from their own formulas."""
    plain, cycle = {}, {}
    for k in {*k_values, *l_values}:
        plain[k] = [int_binomial(p * i + k, i) for i in range(n_max + 1)]
        cycle[k] = [
            _exact_quotient(k * c, p * i + k) for i, c in enumerate(plain[k])
        ]
    for k in k_values:
        for l in l_values:
            for n in range(n_max + 1):
                head = cycle[k][: n + 1]
                if None in head:
                    continue
                lhs = sum(map(mul, head, plain[l][n::-1]))
                rec.expect(
                    lhs,
                    int_binomial(p * n + k + l, n),
                    "mixed form at p=%d k=%d l=%d n=%d" % (p, k, l, n),
                )
                tail = cycle[l][n::-1]
                if p * n + k + l == 0 or None in tail:
                    continue
                lhs = sum(map(mul, head, tail))
                rec.expect(
                    lhs,
                    Fraction(k + l, p * n + k + l) * int_binomial(p * n + k + l, n),
                    "cycle form at p=%d k=%d l=%d n=%d" % (p, k, l, n),
                )


@identity("catalan", min_order=3)
def check_catalan_suite(
    rec,
    k_range=range(-5, 6),
    order: int = 30,
    conv_n_max: int | None = None,
) -> None:
    """Ballot-number formulas for c(x)^k, the central-binomial quotient,
    log c(x), both convolution identities, and the two alternative
    defining equations f = x/(1-f) and f = x(1+f^2)."""
    if conv_n_max is None:
        conv_n_max = rec.params["conv_n_max"] = min(order + 10, 40)
    c = catalan_series(order)
    inv_root = PowerSeries([1, -4], order).pow(Fraction(-1, 2))
    for k in k_range:
        ck = c ** k
        for n in range(order):
            got = ck.coeff(n)
            for value, form in _catalan_forms(k, n):
                if value is not None:
                    rec.expect(got, value, "%s at k=%d n=%d" % (form, k, n))
        mid = ck * inv_root
        for n in range(order):
            rec.expect(
                mid.coeff(n),
                int_binomial(2 * n + k, n),
                "central binomial quotient at k=%d n=%d" % (k, n),
            )
    logc = c.log()
    for m in range(1, order):
        rec.expect(
            logc.coeff(m),
            Fraction(int_binomial(2 * m, m), 2 * m),
            "log c coefficient at m=%d" % m,
        )

    # convolutions from c^k c^l = c^(k+l) and from the quotient display
    conv = (-2, -1, 1, 2, 3)
    _binomial_convolutions(rec, 2, conv, conv, conv_n_max)

    # the same numbers from f = x/(1-f) and f = x(1+f^2)
    x = PowerSeries([0, 1], order)
    rec.expect(
        solve_xR(PowerSeries([1] * order, order)),
        x * c,
        "solution of f = x/(1-f)",
    )
    f2 = solve_xR(PowerSeries([1, 0, 1], order))
    for n in range(order):
        want = c.coeff((n - 1) // 2) if n % 2 == 1 else 0
        rec.expect(f2.coeff(n), want, "solution of f = x(1+f^2) at n=%d" % n)


# -- Fuss-Catalan suite ----------------------------------------------------------


@identity("fuss-catalan", min_order=2)
def check_fuss_catalan(
    rec,
    p_range=(2, 3, 4, 5),
    k_range=range(-3, 6),
    order: int = 30,
    inverse_order: int = 20,
    small_order: int = 15,
) -> None:
    """Coefficient formulas for c_p^k, the binomial-sum quotient display
    with both substituted forms, the three compositional-inverse
    relations, the derivative display, negative-order duality, and the
    composition identity c_{p+q}(x) = c_p(x c_{p+q}(x)^q)."""
    one = PowerSeries([1], order)
    x = PowerSeries([0, 1], order)
    xs = PowerSeries([0, 1], small_order)
    for p in p_range:
        c = fuss_catalan_series(p, order)
        quotient = one - p * x * c ** (p - 1)
        inner1 = x * PowerSeries([1, 1], order) ** (-p)
        inner2 = x * PowerSeries([1, -1], order) ** (p - 1)
        # c^e once per exponent that the k loop reads, k and k + 1
        c_powers = {e: c ** e for e in {*k_range, *(k + 1 for k in k_range)}}
        for k in k_range:
            ck = c_powers[k]
            for n in range(order):
                if p * n + k != 0:
                    rec.expect(
                        ck.coeff(n),
                        Fraction(k, p * n + k) * int_binomial(p * n + k, n),
                        "power coefficient at p=%d k=%d n=%d" % (p, k, n),
                    )
            binsum = PowerSeries(
                [int_binomial(p * n + k, n) for n in range(order)], order
            )
            rec.expect(
                binsum, ck / quotient, "binomial sum quotient at p=%d k=%d" % (p, k)
            )
            rec.expect(
                binsum,
                c_powers[k + 1] / (one - (p - 1) * (c - one)),
                "binomial sum second quotient at p=%d k=%d" % (p, k),
            )
            rec.expect(
                compose(binsum, inner1),
                PowerSeries([1, 1], order) ** (k + 1)
                / PowerSeries([1, -(p - 1)], order),
                "substituted display I at p=%d k=%d" % (p, k),
            )
            rec.expect(
                compose(binsum, inner2),
                (PowerSeries([1, -p], order) * PowerSeries([1, -1], order) ** k)
                ** (-1),
                "substituted display II at p=%d k=%d" % (p, k),
            )
        rec.expect(
            c.derivative().truncated(order - 1),
            (c ** p / quotient).truncated(order - 1),
            "derivative display at p=%d" % p,
        )

        # compositional inverses
        ci = fuss_catalan_series(p, inverse_order)
        xi = PowerSeries([0, 1], inverse_order)
        g1 = (xi * PowerSeries([1, 1], inverse_order) ** (-p)).reversion()
        rec.expect(
            g1, ci - PowerSeries([1], inverse_order), "inverse relation I at p=%d" % p
        )
        g2 = (xi * PowerSeries([1, -1], inverse_order) ** (p - 1)).reversion()
        rec.expect(g2, xi * ci ** (p - 1), "inverse relation II at p=%d" % p)
        g3 = PowerSeries([0, 1] + [0] * (p - 2) + [-1], inverse_order).reversion()
        spread = [0] * inverse_order
        for m in range(inverse_order):
            e = 1 + m * (p - 1)
            if e < inverse_order:
                spread[e] = ci.coeff(m)
        rec.expect(
            g3,
            PowerSeries(spread, inverse_order),
            "inverse relation III at p=%d" % p,
        )

        # duality with negative order
        cm = fuss_catalan_series(-p, small_order)
        cp1 = fuss_catalan_series(p + 1, small_order)
        rec.expect(
            cm * _alternate(cp1), PowerSeries([1], small_order), "duality at p=%d" % p
        )

        # composition identity
        cps = fuss_catalan_series(p, small_order)
        for q, cpq in ((1, cp1), (2, fuss_catalan_series(p + 2, small_order))):
            rec.expect(
                compose(cps, xs * cpq ** q),
                cpq,
                "composition identity at p=%d q=%d" % (p, q),
            )


@identity("rothe-hagen")
def check_rothe_hagen(
    rec,
    p_range=(2, 3, 4),
    k_range=range(-6, 7),
    l_range=range(-6, 7),
    n_max: int = 8,
) -> None:
    """Both convolution identities for generalized binomial sequences;
    parameter triples are skipped when a term hits an excluded index."""
    rec.order = n_max
    for p in p_range:
        _binomial_convolutions(rec, p, k_range, l_range, n_max)


@identity("jensen")
def check_jensen(
    rec, p: int = 3, j: int = 1, r: int = 10, n_max: int = 8
) -> None:
    """sum_l C(j+pl, l) C(r-pl, n-l) = sum_i C(j+r-i, n-i) p^i for all
    n <= n_max, plus the pre-substitution form it is derived from."""
    rec.order = n_max
    for n in range(n_max + 1):
        lhs = sum(
            int_binomial(j + p * l, l) * int_binomial(r - p * l, n - l)
            for l in range(n + 1)
        )
        rhs = sum(int_binomial(j + r - i, n - i) * p ** i for i in range(n + 1))
        rec.expect(lhs, rhs, "identity at n=%d" % n)
        k = r - p * n
        lhs2 = sum(
            int_binomial(p * l + j, l) * int_binomial(p * (n - l) + k, n - l)
            for l in range(n + 1)
        )
        rhs2 = sum(
            int_binomial(p * n + j + k - i, n - i) * p ** i for i in range(n + 1)
        )
        rec.expect(lhs2, rhs2, "pre-substitution form at n=%d" % n)


# -- tree function suite ---------------------------------------------------------


def _forest_cycle_term(i: int, k: int) -> int:
    """[x^i] i! e^(kT); the i = 0 value is 1 for every k."""
    if i == 0:
        return 1
    return k * (i + k) ** (i - 1)


def _lacasse_checks(rec: _Recorder, order: int) -> None:
    t = tree_function(order)
    one = PowerSeries([1], order)
    u = one / (one - t)
    for n in range(order):
        rec.expect(
            u.coeff(n), Fraction(n ** n, factorial(n)), "geometric of T at n=%d" % n
        )
    target = _power_family(0, 1, order)
    rec.expect(u ** 3 - u ** 2, target, "difference of powers display")
    rec.expect(t * u ** 3, target, "product display")
    u2 = u * u
    u3 = u2 * u
    frozen = {1: 2, 2: 10, 3: 78, 4: 824}
    for n in range(min(order, 13)):
        direct = sum(comb(n, k) * k ** k * (n - k) ** (n - k) for k in range(n + 1))
        rec.expect(
            u2.coeff(n) * factorial(n),
            direct,
            "binomial self convolution at n=%d" % n,
        )
        rec.expect(
            direct,
            sum(n ** j * (factorial(n) // factorial(j)) for j in range(n + 1)),
            "partial exponential sum at n=%d" % n,
        )
        rec.expect(
            u3.coeff(n) * factorial(n),
            sum(
                (n - j + 1) * n ** j * (factorial(n) // factorial(j))
                for j in range(n + 1)
            ),
            "cubic closed form at n=%d" % n,
        )
        if n in frozen:
            rec.expect(direct, frozen[n], "frozen value at n=%d" % n)


def _abel_checks(rec: _Recorder, x_range, y_range, z_range, n_max: int) -> None:
    for n in range(n_max + 1):
        for xv in x_range:
            for yv in y_range:
                for zv in z_range:
                    total = 0
                    for i in range(n + 1):
                        if i == 0:
                            term = yv ** n
                        else:
                            term = (
                                xv
                                * (xv + i * zv) ** (i - 1)
                                * (yv - i * zv) ** (n - i)
                            )
                        total += comb(n, i) * term
                    rec.expect(
                        (xv + yv) ** n,
                        total,
                        "x=%d y=%d z=%d n=%d" % (xv, yv, zv, n),
                    )


@identity("tree-function", min_order=2)
def check_tree_function_suite(rec, k_range=range(-3, 6), order: int = 30) -> None:
    """T = x e^T and its coefficient identities: forests counted by
    e^(kT), powers of T, the prime parking function expansion, the
    geometrically weighted variant, both tree convolutions as certified
    polynomial identities, the cubic-power display, and Abel's identity."""
    t = tree_function(order)
    one = PowerSeries([1], order)
    for n in range(order):
        want = Fraction(n ** (n - 1), factorial(n)) if n >= 1 else 0
        rec.expect(t.coeff(n), want, "tree series at n=%d" % n)
    f = t.exp()
    u = one / (one - t)
    for k in k_range:
        fk = f ** k
        rec.expect(fk.coeff(0), 1, "forest constant term at k=%d" % k)
        for n in range(1, order):
            rec.expect(
                fk.coeff(n),
                Fraction(k * (n + k) ** (n - 1), factorial(n)),
                "forest coefficient at k=%d n=%d" % (k, n),
            )
        fku = fk * u
        for n in range(order):
            rec.expect(
                fku.coeff(n),
                Fraction((n + k) ** n, factorial(n)),
                "weighted forest coefficient at k=%d n=%d" % (k, n),
            )
        if k >= 1:
            tk = t ** k
            for n in range(order):
                if n < k:
                    rec.expect(
                        tk.coeff(n), 0, "tree power low term at k=%d n=%d" % (k, n)
                    )
                else:
                    rec.expect(
                        tk.coeff(n),
                        Fraction(k * factorial(k) * comb(n, k), factorial(n))
                        * Fraction(n) ** (n - k - 1),
                        "tree power coefficient at k=%d n=%d" % (k, n),
                    )
    parking = one - PowerSeries(
        [0] + [Fraction((n - 1) ** (n - 1), factorial(n)) for n in range(1, order)],
        order,
    )
    rec.expect(f * parking, one, "prime parking expansion")

    # convolutions, certified on (degree+1)-point grids
    for n in range(9):
        for k in range(n + 2):
            for l in range(n + 2):
                rhs = sum(
                    comb(n, i) * _forest_cycle_term(i, k) * (n - i + l) ** (n - i)
                    for i in range(n + 1)
                )
                rec.expect(
                    (n + k + l) ** n,
                    rhs,
                    "mixed convolution at k=%d l=%d n=%d" % (k, l, n),
                )
                rhs = sum(
                    comb(n, i)
                    * _forest_cycle_term(i, k)
                    * _forest_cycle_term(n - i, l)
                    for i in range(n + 1)
                )
                lhs = 1 if n == 0 else (k + l) * (n + k + l) ** (n - 1)
                rec.expect(
                    lhs, rhs, "cycle convolution at k=%d l=%d n=%d" % (k, l, n)
                )

    _lacasse_checks(rec, min(order, 20))
    _abel_checks(rec, range(-3, 4), range(-3, 4), range(-2, 3), 8)


@identity("lacasse", min_order=2)
def check_lacasse(rec, order: int = 30) -> None:
    """U^3 - U^2 = sum n^(n+1) x^n/n! for U = 1/(1-T), with closed
    binomial-sum forms for the second and third powers."""
    _lacasse_checks(rec, order)


@identity("abel")
def check_abel(
    rec,
    x_range=range(-3, 4),
    y_range=range(-3, 4),
    z_range=range(-2, 3),
    n_max: int = 8,
) -> None:
    """(x+y)^n = sum_i C(n,i) x (x+iz)^(i-1) (y-iz)^(n-i) on integer
    grids; z = 0 points reproduce the binomial theorem."""
    rec.order = n_max
    _abel_checks(rec, x_range, y_range, z_range, n_max)


# -- weighted Stirling numbers ---------------------------------------------------


def weighted_stirling(n: int, j: int, k):
    """R(n, j, k) = (1/j!) sum_i (-1)^(j-i) C(j,i) (k+i)^n, a j-th difference.

    k may be an integer, a Fraction, or a MultiPoly parameter; R(n, j, 0)
    is the ordinary Stirling number of the second kind."""
    if n < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    total = finite_difference([(k + i) ** n for i in range(j + 1)], j)
    return scalar_div_int(total, factorial(j))


def _stirling2(n: int, j: int) -> int:
    """Second-kind Stirling numbers by the triangular recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [0] * (len(row) + 1)
        for i, v in enumerate(row):
            if v:
                nxt[i] += i * v
                nxt[i + 1] += v
        row = nxt
    return row[j] if 0 <= j < len(row) else 0


@identity("weighted-stirling")
def check_ws_egf(
    rec, j_max: int = 4, order: int = 30, k_values=(-2, -1, 0, 1, 2, 3)
) -> None:
    """sum_n R(n,j,k) x^n/n! = e^(kx) (e^x - 1)^j / j!, at integer k and
    with k a free polynomial parameter, plus the Stirling reduction."""
    expm1 = PowerSeries(
        [0] + [Fraction(1, factorial(n)) for n in range(1, order)], order
    )
    ring = PolyRing("k")
    kp = ring.var("k")
    sym_order = min(order, 16)
    for j in range(j_max + 1):
        base = (expm1 ** j) * Fraction(1, factorial(j))
        for k0 in k_values:
            ekx = PowerSeries(
                [Fraction(k0 ** n, factorial(n)) for n in range(order)], order
            )
            lhs = ekx * base
            for n in range(order):
                rec.expect(
                    lhs.coeff(n) * factorial(n),
                    weighted_stirling(n, j, k0),
                    "generating function at j=%d k=%d n=%d" % (j, k0, n),
                )
        ekx_sym = PowerSeries(
            [kp ** n / factorial(n) for n in range(sym_order)], sym_order
        )
        lhs_sym = ekx_sym * base.truncated(sym_order)
        for n in range(sym_order):
            rec.expect(
                lhs_sym.coeff(n) * factorial(n),
                weighted_stirling(n, j, kp),
                "parametric generating function at j=%d n=%d" % (j, n),
            )
        for n in range(min(order, 9)):
            rec.expect(
                weighted_stirling(n, j, 0),
                _stirling2(n, j),
                "Stirling reduction at n=%d j=%d" % (n, j),
            )
    rec.expect(weighted_stirling(4, 2, 0), 7, "frozen value R(4,2,0)")
    rec.expect(weighted_stirling(3, 1, 1), 7, "frozen value R(3,1,1)")
    for n in range(6):
        for k0 in (-2, 2, 3):
            rec.expect(
                weighted_stirling(n, 0, k0),
                Fraction(k0) ** n,
                "power reduction at n=%d k=%d" % (n, k0),
            )


# -- negative and positive power families ----------------------------------------


def _power_family(k0: int, shift: int, order: int) -> PowerSeries:
    """sum_n (n + k0)^(n + shift) x^n / n! through x^(order - 1), in the
    p-l, q-l, r-m and lacasse series identities; each coefficient is one
    Fraction of integer powers, whatever the sign of n + shift."""
    return PowerSeries(
        [
            Fraction(
                (n + k0) ** max(n + shift, 0),
                (n + k0) ** max(-n - shift, 0) * factorial(n),
            )
            for n in range(order)
        ],
        order,
    )


def compute_p_l(l: int) -> RationalFunction:
    """The degree l-1 polynomial p_l(u) with rational-in-k coefficients
    satisfying sum_n (n+k)^(n-l) x^n/n! = e^(kT) p_l(T), built from the
    finite-difference double sum."""
    if l < 1:
        raise ValueError("l must be at least 1")
    ring = PolyRing("u", "k")
    u = ring.var("u")
    k = ring.var("k")
    num = ring.zero()
    den = ring.one()
    for j in range(l):
        for n in range(j + 1):
            t_num = (
                Fraction((-1) ** (j - n) * comb(j, n), factorial(j)) * u ** j
            )
            t_den = (k + n) ** (l - j)
            num = num * t_den + t_num * den
            den = den * t_den
    return RationalFunction(num, den)


def compute_q_l(l: int) -> MultiPoly:
    """q_l(u) = p_l(u) at k = 1; satisfies sum_{n>=1} n^(n-l) x^n/n!
    = T q_l(T)."""
    ring = PolyRing("u")
    uv = ring.var("u")
    out = ring.zero()
    for e, c in enumerate(compute_p_l(l).coefficients_at(1)):
        out = out + c * uv ** e
    return out


def compute_r_m(m: int) -> MultiPoly:
    """The polynomial r_m(u, k) of degree m in u and at most m in k with
    sum_j R(j+m, j, k) u^j = r_m(u, k)/(1-u)^(2m+1), read from the
    product over a window of 3m + 5 terms; ``check_r_m`` checks both degree
    bounds."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    ring = PolyRing("u", "k")
    kp = ring.var("k")
    up = ring.var("u")
    span = 3 * m + 4
    seq = [weighted_stirling(j + m, j, kp) for j in range(span + 1)]
    product = PowerSeries(seq, span + 1) * PowerSeries([1, -1], span + 1) ** (2 * m + 1)
    out = ring.zero()
    for d in range(span + 1):
        coeff = product.coeff(d)
        if coeff:
            out = out + coeff * up ** d
    return out


def _p_table(ring: PolyRing) -> dict:
    u = ring.var("u")
    k = ring.var("k")
    return {
        1: RationalFunction(ring.one(), k),
        2: RationalFunction((k + 1) - u * k, k ** 2 * (k + 1)),
        3: RationalFunction(
            (k + 1) ** 2 * (k + 2)
            - (2 * k + 1) * u * k * (k + 2)
            + u ** 2 * k ** 2 * (k + 1),
            k ** 3 * (k + 1) ** 2 * (k + 2),
        ),
    }


@identity("p-l", min_order=4)
def check_p_l(
    rec, l_max: int = 4, order: int = 30, k_values=(1, 2, 3, 4)
) -> None:
    """p_l tables for l <= 3 and the generating function identity
    sum_n (n+k)^(n-l) x^n/n! = e^(kT) p_l(T) at positive integer k."""
    _require_positive_k(k_values)
    ring = PolyRing("u", "k")
    table = _p_table(ring)
    t = tree_function(order)
    for l in range(1, l_max + 1):
        pl = compute_p_l(l)
        if l in table:
            rec.require(pl == table[l], "printed table at l=%d" % l)
        for k0 in k_values:
            coeffs = pl.coefficients_at(k0)
            rec.require(
                len(coeffs) == l and coeffs[-1] != 0,
                "degree exactly l-1 at l=%d k=%d" % (l, k0),
            )
            # T has valuation 1, so no term of p_l past the order reaches
            # the truncated composition
            rec.expect(
                _power_family(k0, -l, order),
                compose(PowerSeries(coeffs[:order], order), t) * (k0 * t).exp(),
                "series identity at l=%d k=%d" % (l, k0),
            )


@identity("q-l", min_order=3)
def check_q_l(rec, l_max: int = 3, order: int = 30) -> None:
    """q_l tables for l <= 3 and sum_{n>=1} n^(n-l) x^n/n! = T q_l(T)."""
    ring = PolyRing("u")
    u = ring.var("u")
    table = {
        1: ring.one(),
        2: ring.one() - Fraction(1, 2) * u,
        3: ring.one() - Fraction(3, 4) * u + Fraction(1, 6) * u ** 2,
    }
    t = tree_function(order)
    for l in range(1, l_max + 1):
        ql = compute_q_l(l)
        if l in table:
            rec.expect(ql, table[l], "printed table at l=%d" % l)
        coeffs = [ql.coefficient((d,)) for d in range(ql.degree_in("u") + 1)]
        rhs = compose(PowerSeries(coeffs[:order], order), t) * t
        # sum_(n>=1) n^(n-l) x^n/n! is x sum_n (n+1)^(n-l) x^n/n!
        lhs = PowerSeries([0, 1], order) * _power_family(1, -l, order)
        rec.expect(lhs, rhs, "series identity at l=%d" % l)


def _double_factorial_odd(m: int) -> int:
    """(2m-1)!! with the empty product equal to 1."""
    return factorial(2 * m) // (2 ** m * factorial(m))


@identity("r-m", min_order=4)
def check_r_m(
    rec,
    m_max: int = 4,
    order: int = 26,
    k_values=(-1, 0, 1, 2, 3),
    series_m_max: int = 3,
) -> None:
    """r_m tables for m <= 2, degree bounds for m <= m_max, the
    generating function identity at integer k, the derivative ladder, and
    the positivity of the k = 1 rows."""
    ring = PolyRing("u", "k")
    u = ring.var("u")
    k = ring.var("k")
    table = {
        0: ring.one(),
        1: k + (1 - k) * u,
        2: k ** 2 + (1 + 3 * k - 2 * k ** 2) * u + (2 - 3 * k + k ** 2) * u ** 2,
    }
    frozen_rows = {0: [1], 1: [1], 2: [1, 2], 3: [1, 8, 6]}
    t = tree_function(order)
    # (k0, m) -> _power_family(k0, m, order): the series identity and both
    # sides of the ladder read the same series, each built once
    family: dict = {}

    def power_family(k0: int, m: int) -> PowerSeries:
        if (k0, m) not in family:
            family[k0, m] = _power_family(k0, m, order)
        return family[k0, m]

    for m in range(m_max + 1):
        rm = compute_r_m(m)
        rec.require(rm.degree_in("u") == m, "u degree exactly m at m=%d" % m)
        rec.require(rm.degree_in("k") <= m, "k degree bound at m=%d" % m)
        if m in table:
            rec.expect(rm, table[m], "printed table at m=%d" % m)
        row = _u_coefficients(rm, 1)
        rec.require(
            all(c.denominator == 1 and c >= 0 for c in row),
            "nonnegative integer row at k=1, m=%d" % m,
        )
        rec.expect(
            sum(row), _double_factorial_odd(m), "row sum (2m-1)!! at m=%d" % m
        )
        if m in frozen_rows:
            rec.expect(row, frozen_rows[m], "frozen k=1 row at m=%d" % m)
        if m <= series_m_max:
            damping = (1 - t) ** (2 * m + 1)
            for k0 in k_values:
                coeffs = _u_coefficients(rm, k0)[:order]
                rec.expect(
                    power_family(k0, m),
                    compose(PowerSeries(coeffs, order), t) * (k0 * t).exp() / damping,
                    "series identity at m=%d k=%d" % (m, k0),
                )
    for m in range(series_m_max + 1):
        for k0 in k_values:
            rec.expect(
                power_family(k0, m).derivative().truncated(order - 1),
                power_family(k0 + 1, m + 1).truncated(order - 1),
                "derivative ladder at m=%d k=%d" % (m, k0),
            )


# -- Fuss-Catalan polynomiality ---------------------------------------------------


def _u_ij_table(p: int, i: int, d: int):
    """Printed low cases of the vanishing-branch polynomials, d = j - i."""
    if d == 1:
        return [Fraction(1, i + 1)]
    if d == 2:
        return [
            Fraction(1, (i + 1) * (i + 2)),
            -Fraction(p - 1, (i + 2) * (p + i + 1)),
        ]
    if d == 3:
        return [
            Fraction(1, (i + 1) * (i + 2) * (i + 3)),
            -Fraction(
                (p - 1) * (p + 2 * i + 4),
                (i + 2) * (i + 3) * (p + i + 1) * (p + i + 2),
            ),
            Fraction((p - 1) ** 2, (i + 3) * (p + i + 2) * (2 * p + i + 1)),
        ]
    return None


def _primitive_scale(coeffs):
    """Smallest positive rational multiplier making the coefficient list a
    primitive integer vector; returns (multiplier, integer list)."""
    denom = 1
    for c in coeffs:
        denom = lcm(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        return Fraction(denom), ints
    return Fraction(denom, g), [v // g for v in ints]


@identity("fc-polynomial", min_order=2)
def check_fc_polynomiality(
    rec, p: int = 3, i: int = 0, j: int = 2, order: int = 30
) -> None:
    """The binomial-ratio sums sum_n (pn+i)!/(n! ((p-1)n+j)!)
    x^n/(1+x)^(pn+i+1).

    For i < j the sum is a polynomial of degree exactly j-i-1 (checked
    against the printed tables for j-i <= 3 and re-substituted through
    the order-p generating series); for i >= j it becomes polynomial of
    degree at most i-j after multiplying by (1-(p-1)x)^(2(i-j)+1), a
    statement checked empirically."""
    if p < 2:
        raise SizeLimit("p must be at least 2")
    if i < 0 or j < 0:
        raise SizeLimit("i and j must be nonnegative")
    for key, value in (("p", p), ("i", i), ("j", j)):
        if value > N_MAX_LIMIT:
            raise SizeLimit("%s = %d must be at most %d" % (key, value, N_MAX_LIMIT))
    vanishing = i < j
    d = j - i - 1 if vanishing else i - j  # the degree the suite reads
    if d >= order:
        raise SizeLimit(
            "the degree %d this suite reads must be below the order %d" % (d, order)
        )

    def weight(n):
        return Fraction(
            factorial(p * n + i), factorial(n) * factorial((p - 1) * n + j)
        )

    # the sum is W(x/(1+x)^p)/(1+x)^(i+1) with W = sum_n w(n) t^n
    wsum = PowerSeries([weight(n) for n in range(order)], order)
    inv = PowerSeries([1, 1], order) ** (-1)
    s = compose(wsum, PowerSeries([0, 1], order) * inv ** p) * inv ** (i + 1)

    if not vanishing:
        s = s * PowerSeries([1, -(p - 1)], order) ** (2 * d + 1)
    label = "vanishing coefficient" if vanishing else "damped vanishing"
    for m in range(d + 1, order):
        rec.expect(s.coeff(m), 0, "%s at m=%d" % (label, m))
    coeffs = [s.coeff(m) for m in range(d + 1)]
    scale, ints = _primitive_scale(coeffs)
    rec.details = {
        "p": p,
        "i": i,
        "j": j,
        "branch": "vanishing" if vanishing else "damped",
        "empirical": not vanishing,
        "u_polynomial": coeffs,
        "polynomial": ints,
        "scale": scale,
        "degree" if vanishing else "degree_bound": d,
    }
    if not vanishing:
        return
    rec.require(s.coeff(d) != 0, "degree exactly %d" % d)
    table = _u_ij_table(p, i, j - i)
    if table is not None:
        rec.expect(coeffs, table, "printed table at p=%d i=%d j=%d" % (p, i, j))
    c = fuss_catalan_series(p, order)
    rec.expect(
        wsum,
        compose(PowerSeries(coeffs, order), c - 1) * c ** (i + 1),
        "re-substitution through the generating series",
    )
    if (p, i, j) == (3, 0, 2):
        rec.expect(4 * wsum, 3 * c - c ** 2, "worked example sum a_n x^n")
        rec.expect(ints, [2, -1], "worked example polynomial 2 - x")
        rec.expect(scale, 4, "worked example scale")


# -- Narayana and relatives --------------------------------------------------------


def _narayana(n: int, i: int) -> Fraction:
    return Fraction(comb(n, i) * comb(n, i - 1), n)


def _narayana_family(rec, factors, k_values, bound: int) -> MultiPoly:
    """Solve f = prod_t (1 + x_t f)^(e_t), with (1 - x_t f)^(-e_t) for a
    reciprocal factor, through total degree ``bound``; check [x^v] f^k =
    (k/n) prod_t C(e_t n, v_t), with C(e_t n + v_t - 1, v_t) for a
    reciprocal factor and n = k + sum v, at every monomial of degree at
    most ``bound`` for each k; return f.  ``factors`` holds one (e, plus)
    pair per variable x_1, x_2, ..."""
    m = len(factors)
    ring = PolyRing(*("x%d" % (t + 1) for t in range(m)))
    one = ring.one()
    t_order = bound + 2
    r_series = PowerSeries([one], t_order)
    for var, (e, plus) in zip(ring.gens(), factors):
        base = PowerSeries([one, var if plus else -var], t_order)
        r_series = r_series * base ** (e if plus else -e)
    f = solve_indeterminate(r_series, bound)
    prefix = "coefficient of f^%%d at x^%%s for f = %s" % " ".join(
        "(1%sx%d f)^%d" % ("+" if plus else "-", t + 1, e if plus else -e)
        for t, (e, plus) in enumerate(factors)
    )
    for k in k_values:
        fk = f.pow_truncated(k, bound)
        for vec in weighted_compositions((1,) * (m + 1), bound):
            vec = vec[:m]
            n = k + sum(vec)
            num = k
            for (e, plus), v in zip(factors, vec):
                num *= int_binomial(e * n if plus else e * n + v - 1, v)
            rec.expect(fk.coefficient(vec), Fraction(num, n), prefix % (k, vec))
    return f


@identity("narayana")
def check_narayana_suite(rec, degree_bound: int = 6, k_values=(1, 2, 3)) -> None:
    """The symmetric equation f = (1+xf)(1+yf): coefficient formula for
    f^k, the Narayana-number reading of f itself with its symmetry, the
    defining quadratic, the square-root display (cross-multiplied), and
    the three-variable variant f = (1+xf)(1+yf)/(1-zf)."""
    _require_positive_k(k_values)
    rec.order = degree_bound
    f = _narayana_family(rec, ((1, True), (1, True)), k_values, degree_bound)
    xp, yp = PolyRing(*f.vars).gens()

    quad = (xp * yp * f * f + (xp + yp - 1) * f + 1).truncate_total(degree_bound)
    rec.require(quad.is_zero(), "defining quadratic")
    root = 1 - xp - yp - 2 * xp * yp * f
    rec.expect(
        (root * root).truncate_total(degree_bound),
        ((1 - xp - yp) ** 2 - 4 * xp * yp).truncate_total(degree_bound),
        "square root display",
    )
    for a, b, _ in weighted_compositions((1, 1, 1), degree_bound - 1):
        rec.expect(
            f.coefficient((a, b)),
            _narayana(a + b + 1, a + 1),
            "Narayana reading at x^%d y^%d" % (a, b),
        )
    for n in range(1, 9):
        for idx in range(1, n + 1):
            rec.expect(
                _narayana(n, idx),
                _narayana(n, n + 1 - idx),
                "symmetry at n=%d i=%d" % (n, idx),
            )
    rec.expect(_narayana(4, 2), 6, "frozen value N(4,2)")
    _narayana_family(rec, ((1, True), (1, True), (1, False)), (1, 2), degree_bound)


@identity("fuss-narayana")
def check_fuss_narayana(
    rec,
    r_profiles=((1, 1), (2, 1), (2, -1)),
    s_profiles=((1, 1), (2, 2)),
    k_values=(1, 2, 3),
    degree_bound: int = 5,
) -> None:
    """Coefficient formulas for f = prod (1+x_t f)^(r_t) and for the
    reciprocal-power variant, on small integer exponent profiles."""
    _require_positive_k(k_values)
    rec.order = degree_bound
    for profiles, plus in ((r_profiles, True), (s_profiles, False)):
        for profile in profiles:
            factors = tuple((e, plus) for e in profile)
            _narayana_family(rec, factors, k_values, degree_bound)


# -- bivariate rational expansion ----------------------------------------------------


@identity("rational-expansion")
def check_rational_expansion(rec, r: int = 1, s: int = 2, n_max: int = 12) -> None:
    """(1+a)^r (1+b)^s / (1-ab)^(r+s+1) = sum C(r+j, i) C(s+i, j) a^i b^j,
    comparing the direct triple-product expansion with the closed form."""
    rec.order = n_max
    if r < 0 or s < 0:
        raise SizeLimit("r and s must be nonnegative")

    def direct(r, s, i, j):
        # [a^i b^j] of the triple product, summed over the power n of ab
        return sum(
            comb(r, i - n) * comb(s, j - n) * comb(r + s + n, n)
            for n in range(min(i, j) + 1)
            if i - n <= r and j - n <= s
        )

    for i in range(n_max + 1):
        for j in range(n_max + 1):
            rec.expect(
                direct(r, s, i, j),
                int_binomial(r + j, i) * int_binomial(s + i, j),
                "coefficient at a^%d b^%d" % (i, j),
            )
    rec.expect(direct(1, 1, 1, 1), 4, "frozen value at r=s=1, a^1 b^1")


# -- finite differences ----------------------------------------------------------------


def finite_difference(values, k: int):
    """k-th forward difference at the left end of a contiguous window of
    sequence values; needs at least k+1 of them.  A negative k raises
    SizeLimit."""
    values = list(values)
    if k < 0:
        raise SizeLimit("difference order must be nonnegative")
    if len(values) < k + 1:
        raise InsufficientRange(
            "need %d values for the %d-th difference, got %d"
            % (k + 1, k, len(values))
        )
    total = 0
    for i in range(k + 1):
        total = total + (-1) ** (k - i) * comb(k, i) * values[i]
    return total


@identity("finite-difference-lemma")
def check_ffd_lemma(rec, d_max: int = 6, seed: int = 5, trials: int = 3) -> None:
    """The k-th difference of a degree-d polynomial: 0 for k > d and the
    constant d! L at k = d, on random integer polynomials and on symbolic
    windows (k+i)^m."""
    rec.order = d_max
    rng = random.Random(seed)
    for d in range(d_max + 1):
        for _ in range(trials):
            coeffs = [rng.randint(-5, 5) for _ in range(d)] + [
                rng.choice([-3, -2, -1, 1, 2, 3])
            ]
            lead = coeffs[-1]
            for base in (0, 1, -2):
                window = [poly_eval(coeffs, base + i) for i in range(d + 3)]
                rec.expect(
                    finite_difference(window, d),
                    factorial(d) * lead,
                    "constant value at d=%d base=%d" % (d, base),
                )
                rec.expect(
                    finite_difference(window, d + 1),
                    0,
                    "vanishing at k=d+1, d=%d base=%d" % (d, base),
                )
                rec.expect(
                    finite_difference(window, d + 2),
                    0,
                    "vanishing at k=d+2, d=%d base=%d" % (d, base),
                )
    rec.expect(finite_difference([0, 1, 4], 2), 2, "frozen square example")
    rec.expect(
        finite_difference([n ** 3 - n for n in range(5)], 4),
        0,
        "frozen cubic example",
    )
    rec.expect(
        finite_difference([5 * n ** 3 for n in range(4)], 3),
        30,
        "frozen leading example",
    )
    ring = PolyRing("k")
    kp = ring.var("k")
    for j in (1, 2, 3):
        for m in range(j + 2):
            window = [(kp + i) ** m for i in range(j + 1)]
            got = finite_difference(window, j)
            if m < j:
                rec.require(got.is_zero(), "symbolic vanishing at j=%d m=%d" % (j, m))
            elif m == j:
                rec.expect(got, factorial(j), "symbolic constant at j=%d" % j)
            else:
                rec.expect(
                    got,
                    factorial(j + 1) * (kp + Fraction(j, 2)),
                    "symbolic linear case at j=%d" % j,
                )


# -- Raney's exponential equation ---------------------------------------------------


@identity("raney")
def check_raney(rec, i_total_max: int = 5, k_values=(1, 2)) -> None:
    """Coefficients of f^k for f = A1 e^(B1 f) + A2 e^(B2 f) against the
    closed product formula, plus the single-term reduction."""
    if not k_values:
        raise SizeLimit("k_values is empty")
    _require_positive_k(k_values)
    bound = rec.order = 2 * i_total_max - min(k_values)
    if bound < 0:
        raise SizeLimit(
            "i_total_max = %d leaves no degree to solve for k = %d"
            % (i_total_max, min(k_values))
        )
    ring = PolyRing("a1", "a2", "b1", "b2")
    a1, a2, b1, b2 = ring.gens()
    t_order = bound + 1
    coeffs = [
        (a1 * b1 ** m + a2 * b2 ** m) / factorial(m) for m in range(t_order)
    ]
    f = solve_indeterminate(PowerSeries(coeffs, t_order), bound)
    pairs = list(weighted_compositions((1, 1, 1), i_total_max))
    for k in k_values:
        fk = f.pow_truncated(k, bound)
        for i1, i2, _ in pairs:
            for j1, j2, _ in pairs:
                if i1 + i2 + j1 + j2 <= bound:
                    rec.expect(
                        fk.coefficient((i1, i2, j1, j2)),
                        raney_coefficient((i1, i2), (j1, j2), k),
                        "coefficient at k=%d A=%s B=%s" % (k, (i1, i2), (j1, j2)),
                    )
    for k in k_values:
        for n in range(k, 7):
            rec.expect(
                raney_coefficient((n,), (n - k,), k),
                Fraction(k, n) * Fraction(n ** (n - k), factorial(n - k)),
                "single-term reduction at k=%d n=%d" % (k, n),
            )


# -- Schur-Jabotinsky duality --------------------------------------------------------


@identity("schur-jabotinsky", min_order=7)
def check_schur_jabotinsky(
    rec, trials: int = 20, order: int = 20, seed: int = 7
) -> None:
    """[x^n] f^k = (k/n) [x^(-k)] g^(-n) for compositional inverses f, g,
    on random series and on the worked pair f = x c(x), g = x - x^2."""
    x = PowerSeries([0, 1], order)
    c = catalan_series(order)
    f0 = x * c
    g0 = f0.reversion()  # once for every (n, k) of the worked pair
    rec.expect(
        g0,
        PowerSeries([0, 1, -1], order),
        "reversion of x c(x) is x - x^2",
    )
    pairs = [
        (n, k)
        for n in range(-4, 7)
        for k in range(-4, 6)
        if schur_jabotinsky_window(order, n, k)
    ]
    # f0^k and g0^(-n) once per exponent, for every (n, k) that reads them
    f0l, g0l = f0.to_laurent(), g0.to_laurent()
    f0_powers = {k: f0l ** k for k in {k for _, k in pairs}}
    g0_powers = {n: g0l ** (-n) for n in {n for n, _ in pairs}}
    for n, k in pairs:
        rec.require(
            f0_powers[k].coeff(n) == Fraction(k, n) * g0_powers[n].coeff(-k),
            "worked pair at n=%d k=%d" % (n, k),
        )
    rng = random.Random(seed)
    candidates = [
        (n, k)
        for n in range(-6, 7)
        for k in range(-6, 7)
        if schur_jabotinsky_window(order, n, k)
    ]
    rec.require(bool(candidates), "order leaves no readable (n, k) pair")
    for trial in range(trials):
        coeffs = [0, rng.choice([1, -1, 2, Fraction(1, 2)])]
        for _ in range(5):
            coeffs.append(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        fr = PowerSeries(coeffs, order)
        n, k = rng.choice(candidates)
        rec.expect(
            *schur_jabotinsky_pair(fr, n, k),
            "random trial %d at n=%d k=%d" % (trial, n, k),
        )


# -- residues ---------------------------------------------------------------------------


def _residue_after(a: LaurentSeries, g: PowerSeries) -> Fraction:
    """res a(g(x)) g'(x) computed termwise: the sum of a_n res g^n g' over
    the exponents n of a.  One walk forms g^n from a's least exponent to
    its greatest nonzero one, one product per exponent, and each residue
    is read as one dot product of g^n with g'."""
    top = max((i for i, c in enumerate(a.coeffs) if c), default=-1)
    gl = g.to_laurent()
    powers = accumulate(repeat(gl, top), mul, initial=gl ** a.min_exponent)
    gp = g.derivative()
    total = Fraction(0)
    for cn, power in zip(a.coeffs, powers):
        if cn:
            total += cn * power.product_coeff(gp, -1)
    return total


# the truncation order of hirzebruch-residue's random pairs: it must hold
# the 8 coefficients of a substitution of valuation 3, and the residues
# read no coefficient near the top, so a higher order changes no check and
# only costs time (17 s at order 200 with 1200 pair_trials on a 2-core host)
PAIR_ORDER = 15


def _random_laurent(rng) -> LaurentSeries:
    min_exp = rng.randint(-3, 0)
    coeffs = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)
    ]
    return LaurentSeries(coeffs, min_exp, PAIR_ORDER)


def _random_substitution(rng, valuation: int) -> PowerSeries:
    coeffs = [0] * valuation + [rng.choice([1, -1, 2])]
    for _ in range(4):
        coeffs.append(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return PowerSeries(coeffs, PAIR_ORDER)


@identity("hirzebruch-residue")
def check_hirzebruch(
    rec, n_max: int = 20, pair_trials: int = 30, seed: int = 11
) -> None:
    """res (f/x)^n = 1 for all n >= 1 when f = x/(1-e^(-x)), by Laurent
    powers and by direct coefficient extraction; plus the change of
    variables formula res a = res a(g) g' for valuation-1 g and its
    m res a = res a(g) g' generalization for valuation-m g."""
    order = rec.order = n_max + 4
    u = PowerSeries(
        [Fraction((-1) ** n, factorial(n + 1)) for n in range(order)], order
    )
    f = PowerSeries([1], order) / u
    fl = f.shift(-1)
    # fl^(n-1) and f^(n-1) for n = 1 .. n_max, one product per exponent;
    # the nth powers' coefficients are read as dot products
    one = LaurentSeries([1], 0, order)
    fl_powers = accumulate(repeat(fl, n_max - 1), mul, initial=one)
    f_powers = accumulate(repeat(f, n_max - 1), mul, initial=one)
    for n, flp, fp in zip(range(1, n_max + 1), fl_powers, f_powers):
        rec.expect(flp.product_coeff(fl, -1), 1, "residue value at n=%d" % n)
        rec.expect(fp.product_coeff(f, n - 1), 1, "coefficient route at n=%d" % n)
    rng = random.Random(seed)
    for trial in range(pair_trials):
        a = _random_laurent(rng)
        g = _random_substitution(rng, 1)
        composed = (compose(a, g) * g.derivative()).residue()
        rec.expect(composed, a.residue(), "change of variables trial %d" % trial)
        rec.expect(
            _residue_after(a, g), a.residue(), "termwise route trial %d" % trial
        )
        m = 2 + trial % 2
        gm = _random_substitution(rng, m)
        rec.expect(
            _residue_after(a, gm),
            m * a.residue(),
            "valuation %d generalization trial %d" % (m, trial),
        )


# -- running by name ----------------------------------------------------------------------


def identity_names() -> list[str]:
    return sorted(IDENTITY_CATALOG)


def run_identity(name: str, order: int = 30, **params) -> IdentityReport:
    """Run one named identity check at its own default parameters, with
    any overrides, passing ``order`` to the checks that take one; raises
    UnknownIdentity for a name not in the catalog, and SizeLimit before
    any work for a size argument outside 0 up to its limit in
    ``SIZE_LIMITS`` or an ``order`` outside the suite's minimum up to
    ``MAX_ORDER``."""
    try:
        func = IDENTITY_CATALOG[name]
    except KeyError:
        raise UnknownIdentity(
            "unknown identity %r; known: %s" % (name, ", ".join(identity_names()))
        ) from None
    if "order" in inspect.signature(func).parameters:
        params.setdefault("order", order)
    return func(**params)


def run_all(order: int = 30) -> list[IdentityReport]:
    """Run every cataloged identity at its defaults."""
    return [run_identity(name, order=order) for name in identity_names()]
