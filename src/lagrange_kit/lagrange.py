"""Series inversion: solvers for f = x R(f) and f = R(f), and
coefficient-extraction forms.

The central objects are the solution f of f = x * R(f) for a unit power
series R, and the equivalent ways of reading coefficients of phi(f) from
plain truncated-series arithmetic on phi and R:

* form A: (1/n) [t^(n-1)] phi'(t) R(t)^n            (n != 0)
* form B: [t^n] (1 - t R'(t)/R(t)) phi(t) R(t)^n
* form C: [t^n] phi R^n - [t^(n-1)] phi R' R^(n-1)  (coefficient of x^n in
  the expansion of phi(f) as a sum over two extractions)
* forms D/E: [t^n] psi R^n, equal to the coefficient of x^n in
  psi(f)/(1 - x R'(f)) and in psi(f)/(1 - f R'(f)/R(f))

plus the n = 0 supplement via the residue of phi' log(R/r0), the
log(f/x) extraction, the negative/positive power-coefficient duality, the
shift expansions for f = x + z H(f), product convolutions, and the closed
profile sums for coefficients of f^k.

``solve_xR`` computes f^k by form A with phi = t^k, and f itself with
phi = t, reading both from one walk of the powers of R in the series
engine, and checks f by direct substitution through ``compose``.  It
reads only [t^(K-1)] R^K and [t^(K-k)] R^K, and for R of degree d entry
j of R^K' feeds only entries j .. j + d (K - K') of R^K, so the walk
forms each power only on the entries a later read reaches, up to its
degree; dense R such as exp keeps every entry but in the last power.
For k at or above the order, f^k is zero there and no walk runs.
``solve_indeterminate`` iterates f = R(f) to a fixed point, since it
truncates by total degree in the parameters, not by order: round j is
right through total degree j and forms no product term above it.
``inversion_form_sweep`` reads each form's coefficient as one dot product
of that form's own operands.

``derivative_form`` and ``cauchy_convolution_check`` read two term lists,
the shift terms D^(m-1)(g' H^m)/m! and the ratio terms D^m(g H^m)/m!, off
one walk of H^0 .. H^z.  The direct route reads neither: it solves for f
one z order per round, substituting f into H as it extends the powers of
f - x by one z entry per round, then substitutes f into phi, psi and H' in
one Taylor pass over those powers.

``schur_jabotinsky_pair`` reads one coefficient on each side of the
duality, so it reads both from f truncated to the least order whose
window reads that (n, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .errors import (
    BadConstantTerm,
    FormAUndefined,
    InadmissibleComposition,
    NotReversible,
    OrderMismatch,
    OutOfPrecision,
    SelfCheckFailed,
    SizeLimit,
    UnguardedCoefficient,
)
from .scalars import (
    MultiPoly,
    multinomial,
    scalar_div_int,
    scalar_inverse,
    weighted_compositions,
)
from .series import (
    LaurentSeries,
    PowerSeries,
    _powers,
    _quotient,
    compose,
)


def solve_xR(R: PowerSeries, k: int = 1) -> PowerSeries:
    """f^k for the unique power series f with f = x * R(f), by form A with
    phi = t^k: [x^K] f^k = (k/K) [t^(K-k)] R^K, and with phi = t for f
    itself, [x^K] f = (1/K) [t^(K-1)] R^K.

    One loop reads both entries of each of the powers R, R^2, ... from the
    series engine's power walk on R's stored form, for every coefficient
    ring: a rational power gives one Fraction, its numerator times k over
    K times its denominator; an integer R gives int coefficients, and
    MultiPoly R runs natively.  The values are those of
    ``solve_xR(R) ** k``, and so are the types unless a MultiPoly entry of
    f cancels to zero: series products skip that entry, so the power can
    read an int where the walk of R gives a MultiPoly (``solve_xR(R) ** 1``
    differs from f there too).

    The walk is windowed and bounded by degree: for R of degree d (its
    last nonzero coefficient), entry j of R^K' feeds only entries
    j .. j + d (K - K') of R^K, so power K' is formed only on the entries
    from max(0, n - 1 - min(k, n - 1) - max(d, 1) (n - 1 - K')) that some
    later read reaches, and only up to its degree d K'.  For k >= n, f^k
    is zero below x^n and no walk runs.

    f is verified by direct substitution before f^k is returned.  f has
    the order of R; for a shorter f, truncate R.  A Laurent R raises
    ``InadmissibleComposition`` and a k below 1 ``SizeLimit``.
    """
    if isinstance(R, LaurentSeries):
        raise InadmissibleComposition("R must be a power series")
    if k < 1:
        raise SizeLimit("k must be at least 1")
    n = R.order
    if k >= n:
        return PowerSeries([], n)
    f, fk = [0], [0] * k
    for K, ((power, den), low) in enumerate(_powers(R._form, n - 1, n - 1, k), 1):
        f.append(_form_a(power[K - 1 - low], 1, K, den))
        if K >= k > 1:
            fk.append(_form_a(power[K - k - low], k, K, den))
    f = PowerSeries(f, n)
    if PowerSeries([0, 1], n) * compose(R, f) != f:
        raise SelfCheckFailed("fixed point failed the substitution check")
    return f if k == 1 else PowerSeries(fk, n)


def _form_a(c, k: int, K: int, den):
    """(k/K) c for c = [t^(K-k)] R^K, a numerator over den on the rational
    path: an integer R gives an integer f^k, so its coefficients stay ints."""
    if den is None and isinstance(c, int) and not c * k % K:
        return c * k // K
    return scalar_div_int(c * k, K * (den or 1))


def solve_indeterminate(R: PowerSeries, degree_bound: int) -> MultiPoly:
    """The unique f with f = R(f), truncated by total degree in the formal
    parameters of R's MultiPoly coefficients.

    Every coefficient of t^n with n > 0 must carry a parameter factor in each
    of its terms; otherwise the fixed point is not determined degree by
    degree and ``UnguardedCoefficient`` is raised; a negative
    ``degree_bound`` raises ``SizeLimit``.

    So the degree-j part of R(f) reads only the parts of f below degree j,
    and round j (j = 0 .. degree_bound) evaluates R(f) by Horner's rule
    with products truncated at total degree j (``MultiPoly.mul_truncated``,
    which never forms a term above its bound).  One last evaluation at
    the full bound checks the fixed point.  r_0 is added untruncated, so
    its terms above the bound are kept in the result.
    """
    if degree_bound < 0:
        raise SizeLimit("degree bound must be nonnegative")
    sample = None
    for c in R.coeffs:
        if isinstance(c, MultiPoly):
            sample = c
            break
    for i in range(1, R.order):
        c = R.coeff(i)
        if isinstance(c, MultiPoly):
            if not c.is_zero() and c.min_total_degree() == 0:
                raise UnguardedCoefficient(
                    "coefficient of t^%d has a parameter-free term" % i
                )
        elif c:
            raise UnguardedCoefficient(
                "coefficient of t^%d is a bare number" % i
            )
    if sample is None:
        return R.coeffs[0]
    vars_ = sample.vars

    def as_poly(c):
        return c if isinstance(c, MultiPoly) else MultiPoly.const(vars_, c)

    coeffs = [as_poly(c) for c in R.coeffs]
    top = 0
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            top = i

    def evaluate(f: MultiPoly, bound: int) -> MultiPoly:
        acc = coeffs[top]
        for i in range(top - 1, -1, -1):
            acc = acc.mul_truncated(f, bound) + coeffs[i]
        return acc

    f = MultiPoly(vars_)
    for j in range(degree_bound + 1):
        f = evaluate(f, j)
    if evaluate(f, degree_bound) != f:
        raise SelfCheckFailed("fixed point failed the substitution check")
    return f


@dataclass
class FormValues:
    """Values of every extraction form at one index n, plus the directly
    substituted values they must match."""

    n: int
    form_a: object  # None when n == 0
    form_b: object
    form_c: object
    form_d: object
    form_e: object
    direct: object          # [x^n] phi(f)
    ratio_x: object         # [x^n] phi(f) / (1 - x R'(f))
    ratio_f: object         # [x^n] phi(f) / (1 - f R'(f)/R(f))

    @property
    def agree(self) -> bool:
        ok = self.form_b == self.direct and self.form_c == self.direct
        if self.form_a is not None:
            ok = ok and self.form_a == self.direct
        return (
            ok
            and self.form_d == self.ratio_x
            and self.form_e == self.ratio_f
            and self.ratio_x == self.ratio_f
        )


def _as_laurent(phi, order: int) -> LaurentSeries:
    if isinstance(phi, PowerSeries):
        phi = phi.to_laurent()
    if phi.order != order:
        raise OrderMismatch("phi and R must share the truncation order")
    return phi


def inversion_form_sweep(phi, R: PowerSeries, n_values) -> list[FormValues]:
    """Evaluate all extraction forms for each n in n_values.

    phi may be a Laurent series; negative exponents of phi reduce the
    reliable top of the directly substituted series, so the largest
    requested n must stay below order - 1 + min(0, phi.min_exponent).
    Each form reads its coefficient as one dot product of its own operands
    (``LaurentSeries.product_coeff``), so no two forms share a product.
    """
    phi = _as_laurent(phi, R.order)
    n_values = list(n_values)
    if not n_values:
        return []
    order = R.order
    if not R.coeffs[0]:
        raise BadConstantTerm("R must have an invertible constant term")
    m_phi = min(0, phi.min_exponent)
    reliable = order - 1 + m_phi if m_phi < 0 else order
    if max(n_values) >= reliable - 1:
        raise OutOfPrecision(
            "largest n %d too close to order %d for this phi"
            % (max(n_values), order)
        )
    x = PowerSeries([0, 1], order)
    rp = R.derivative()
    f = solve_xR(R)
    phi_f = compose(phi, f)
    rp_f = compose(rp, f)
    r_f = compose(R, f)
    ratio_x_series = phi_f / (1 - x * rp_f)
    ratio_f_series = phi_f / (1 - (f * rp_f) / r_f)
    weight = 1 - (x * rp) / R
    wphi = phi * weight
    phid = phi.derivative()
    phi_rp = phi * rp
    lo = min(n_values) - 1
    hi = max(n_values)
    powers = {0: PowerSeries([1], order)}
    for k in range(1, hi + 1):
        powers[k] = powers[k - 1] * R
    if lo < 0:
        r_inv = PowerSeries([1], order) / R
        for k in range(-1, lo - 1, -1):
            powers[k] = powers[k + 1] * r_inv
    out = []
    for n in n_values:
        rn = powers[n]
        rn1 = powers[n - 1]
        form_a = None
        if n != 0:
            form_a = scalar_div_int(phid.product_coeff(rn, n - 1), n)
        form_b = wphi.product_coeff(rn, n)
        d_value = phi.product_coeff(rn, n)
        form_c = d_value - phi_rp.product_coeff(rn1, n - 1)
        out.append(
            FormValues(
                n=n,
                form_a=form_a,
                form_b=form_b,
                form_c=form_c,
                form_d=d_value,
                form_e=d_value,
                direct=phi_f.coeff(n),
                ratio_x=ratio_x_series.coeff(n),
                ratio_f=ratio_f_series.coeff(n),
            )
        )
    return out


def constant_term_supplement(phi, R: PowerSeries):
    """[x^0] phi(f) for f = x R(f): [t^0] phi + residue(phi' log(R/r0))."""
    r0 = R.constant_term
    if not r0:
        raise BadConstantTerm("R must have an invertible constant term")
    inv0 = scalar_inverse(r0)
    phi = _as_laurent(phi, R.order)
    log_r = (R * inv0).log()
    return phi.coeff(0) + (phi.derivative() * log_r).residue()


def log_f_over_x(R: PowerSeries, m: int):
    """[x^m] log(f/x) = (1/m) [t^m] R^m, for R with constant term 1."""
    if m < 1:
        raise FormAUndefined("the 1/m extraction is undefined for m < 1")
    if R.coeffs[0] != 1:
        raise BadConstantTerm("this extraction requires R(0) = 1")
    return scalar_div_int((R ** m).coeff(m), m)


def _laurent_power_reliable(order: int, k: int) -> int:
    # negative powers of a valuation-1 series lose |k| + 1 top coefficients
    return order if k >= 0 else order - 1 + k


def schur_jabotinsky_window(order: int, n: int, k: int) -> bool:
    """Whether the duality at (n, k) is readable from data of this order."""
    return (
        n != 0
        and n < _laurent_power_reliable(order, k) - 1
        and -k < _laurent_power_reliable(order, -n) - 1
    )


def schur_jabotinsky_pair(f: PowerSeries, n: int, k: int):
    """Both sides of the power-coefficient duality between f and its
    compositional inverse g: ([x^n] f^k, (k/n) [x^(-k)] g^(-n)).

    Both sides read f and g only through x^(n-k+1), and the first N
    coefficients of g depend only on the first N of f, so both sides are
    read from f truncated to the least order N >= 2 whose window reads
    (n, k); a truncation keeps f's stored form, so each value keeps its type."""
    if n == 0:
        raise FormAUndefined("the duality is stated for n != 0")
    if f.valuation() != 1:
        raise NotReversible("f must have valuation exactly 1")
    # the window only widens with the order: no N reads (n, k) unless f.order does
    least = next(
        (N for N in range(2, f.order + 1) if schur_jabotinsky_window(N, n, k)), None
    )
    if least is None:
        raise OutOfPrecision(
            "n = %d, k = %d unreadable from f^%d and g^%d at order %d"
            % (n, k, k, -n, f.order)
        )
    f = f.truncated(least)
    lhs = (f.to_laurent() ** k).coeff(n)
    return lhs, Fraction(k, n) * (f.reversion().to_laurent() ** (-n)).coeff(-k)


# -- expansions for f = x + z H(f) -------------------------------------------
#
# Values of "series in z with power-series-in-x entries" are plain lists
# indexed by the z exponent; every entry shares one x truncation order.
# The powers of f - x are formed entry by entry (``_shifted_powers``);
# quotients of such lists go through the series kernel ``_quotient``.


def _divided_derivative(s: PowerSeries, m: int) -> PowerSeries:
    """D^m(s)/m!: coefficient n is C(n + m, m) s_(n+m)."""
    return s._make([comb(n + m, m) * c for n, c in enumerate(s._nums[m:])], s._den)


def _shift_terms(g: PowerSeries, powers, ms) -> list:
    """Lagrange's terms of g(f) at each m in ms, with powers[m] = H^m: g at
    m = 0, otherwise D^(m-1)(g' H^m)/m!."""
    gp = g.derivative()
    return [
        _divided_derivative(gp * powers[m], m - 1) * Fraction(1, m) if m else g
        for m in ms
    ]


def _ratio_terms(g: PowerSeries, powers, ms) -> list:
    """The terms D^m(g H^m)/m! of g(f)/(1 - z H'(f)) at each m in ms."""
    return [_divided_derivative(g * powers[m], m) for m in ms]


def _shifted_powers(divided_h, z_order):
    """The table pw with pw[m][k] = [z^k] (f - x)^m for 1 <= m <= k <=
    z_order, for f = x + z H(f), from divided_h[m] = D^m(H)/m!.

    Round k forms the z^k entries of the powers, which read only the
    entries of f through z^k, then [z^(k+1)] f = [z^k] H(f) from them; no
    entry of a power is formed twice."""
    zero = PowerSeries([0], divided_h[0].order)
    delta = [zero] * (z_order + 1)
    pw = [None, delta] + [[zero] * (z_order + 1) for _ in range(z_order - 1)]
    for k in range(z_order + 1):
        for m in range(2, k + 1):
            pw[m][k] = sum(
                (delta[i] * pw[m - 1][k - i] for i in range(1, k - m + 2)
                 if delta[i] and pw[m - 1][k - i]),
                zero,
            )
        if k < z_order:
            delta[k + 1] = _taylor_sum(divided_h, pw, k)
    return pw


def _taylor_sum(divided, pw, k):
    """[z^k] alpha(f) for a substitution whose z^0 entry is exactly x, from
    divided[m] = D^m(alpha)/m! and pw[m][k] = [z^k] (f - x)^m: alpha at
    k = 0, otherwise the Taylor sum over m = 1 .. k."""
    if not k:
        return divided[0]
    return sum(
        (divided[m] * pw[m][k] for m in range(1, k + 1)
         if divided[m] and pw[m][k]),
        PowerSeries([0], divided[0].order),
    )


@dataclass
class ShiftExpansion:
    """The z-expansions of phi(f) and psi(f)/(1 - z H'(f)) for the shifted
    equation f = x + z H(f), computed three independent ways, with every
    entry truncated to the reliable x order."""

    x_order: int
    z_order: int
    phi_direct: list
    phi_via_weight: list
    phi_via_shift: list
    ratio_direct: list
    ratio_via_powers: list

    @property
    def agree(self) -> bool:
        for alt in (self.phi_via_weight, self.phi_via_shift):
            if any(a != b for a, b in zip(self.phi_direct, alt)):
                return False
        return all(
            a == b for a, b in zip(self.ratio_direct, self.ratio_via_powers)
        )


def derivative_form(phi: PowerSeries, H: PowerSeries, z_order: int,
                    psi: PowerSeries | None = None) -> ShiftExpansion:
    """Expand phi(f) and psi(f)/(1 - z H'(f)) for f = x + z H(f) through
    z^z_order, by direct solution and by the two derivative expansions.

    psi defaults to phi.  The convention for the z^0 entry of the phi'
    expansion is phi itself.  The direct route substitutes f into H during
    the solve; only phi, psi and H' go through the Taylor pass.
    """
    if psi is None:
        psi = phi
    order = phi.order
    if psi.order != order or H.order != order:
        raise OrderMismatch("phi, psi, H must share the truncation order")
    if z_order < 0:
        raise SizeLimit("z_order must be nonnegative")
    x_order = order - z_order
    if x_order < 1:
        raise OutOfPrecision("z_order %d leaves no x window at order %d"
                             % (z_order, order))

    one = PowerSeries([1], order)
    powers = list(accumulate([H] * z_order, mul, initial=one))
    ms = range(z_order + 1)
    via_shift = _shift_terms(phi, powers, ms)
    hp = H.derivative()
    ratio_phi = _ratio_terms(phi, powers, ms)
    ratio_phi_hp = _ratio_terms(phi * hp, powers, ms[:-1])
    via_weight = [phi] + [a - b for a, b in zip(ratio_phi[1:], ratio_phi_hp)]
    ratio_via_powers = _ratio_terms(psi, powers, ms)

    divided = [[_divided_derivative(alpha, m) for m in ms]
               for alpha in (H, phi, psi, hp)]
    pw = _shifted_powers(divided[0], z_order)
    phi_direct, psi_f, hp_f = (
        [_taylor_sum(d, pw, k) for k in ms] for d in divided[1:]
    )
    denom = [one] + [-e for e in hp_f[: z_order]]
    ratio_direct, _ = _quotient((psi_f, None), (denom, None), 1, z_order + 1)

    cut = lambda entries: [e.truncated(x_order) for e in entries]
    return ShiftExpansion(
        x_order=x_order,
        z_order=z_order,
        phi_direct=cut(phi_direct),
        phi_via_weight=cut(via_weight),
        phi_via_shift=cut(via_shift),
        ratio_direct=cut(ratio_direct),
        ratio_via_powers=cut(ratio_via_powers),
    )


def cauchy_convolution_check(phi: PowerSeries, psi: PowerSeries,
                             H: PowerSeries, n: int) -> bool:
    """Verify both product convolutions of the shifted expansions at index n.

    Each convolution over n! is the z^n coefficient of a product of term
    lists: shift(phi) ratio(psi) against ratio(phi psi), and shift(phi)
    shift(psi) against shift(phi psi), compared through the exact x window.
    """
    order = phi.order
    if n < 0:
        raise SizeLimit("n must be nonnegative")
    if order - n < 2:
        raise OutOfPrecision("n = %d leaves no x window at order %d" % (n, order))
    x_order = order - n
    powers = list(accumulate([H] * n, mul, initial=PowerSeries([1], order)))
    ms = range(n + 1)
    shift_phi = _shift_terms(phi, powers, ms)
    for terms in (_ratio_terms, _shift_terms):
        psi_terms = terms(psi, powers, ms)
        lhs = sum((shift_phi[m] * psi_terms[n - m] for m in ms),
                  PowerSeries([0], order))
        rhs = terms(phi * psi, powers, [n])[0]
        if lhs.truncated(x_order) != rhs.truncated(x_order):
            return False
    return True


# -- closed profile sums ------------------------------------------------------


def explicit_coefficient(r, n: int, k: int):
    """[x^n] f^k for f = x R(f), R = sum r_i t^i, as the closed sum of
    (k/n) multinomial(n; n_0, n_1, ...) prod r_i^(n_i) over the profiles
    with sum i n_i = n - k, n_0 = n - sum n_i >= 0; an empty sum is 0.  An
    empty list is the zero series, as [0] is."""
    r = list(r) or [0]
    if n < 1:
        return 0
    acc = 0
    for tail in weighted_compositions(range(len(r) - 1, 0, -1), n - k):
        prof = (n - sum(tail), *reversed(tail))
        if prof[0] >= 0:
            term = Fraction(k * multinomial(n, tail), n)
            for i, ni in enumerate(prof):
                if ni:
                    term = term * (r[i] ** ni)
            acc = acc + term
    return acc


def explicit_from_inverse(g_tail, m: int, k: int):
    """[x^m] f^k where f is the compositional inverse of
    g = x - g_2 x^2 - g_3 x^3 - ... (g_tail lists g_2, g_3, ...), as the
    closed sum over the counts n_i of the g_i with sum (i - 1) n_i = m - k."""
    g_tail = list(g_tail)
    if m < 1:
        return 0
    acc = 0
    for tail in weighted_compositions(range(len(g_tail), 0, -1), m - k):
        term = Fraction(k * multinomial(m - 1 + sum(tail), tail), m)
        for c, ni in zip(g_tail, reversed(tail)):
            if ni:
                term = term * (c ** ni)
        acc = acc + term
    return acc


def raney_coefficient(i_counts, j_counts, k: int):
    """Forest count for the exponential implicit equation: the number
    weight attached to a profile of i-counts and j-counts, zero unless
    sum(i) = k + sum(j)."""
    i_counts = list(i_counts)
    j_counts = list(j_counts)
    if len(i_counts) != len(j_counts):
        raise ValueError("profiles must have equal length")
    if k < 1:
        raise ValueError("k must be a positive integer")
    total = sum(i_counts)
    if total != k + sum(j_counts):
        return Fraction(0)
    value = Fraction(k * multinomial(total, i_counts), total)
    for it, jt in zip(i_counts, j_counts):
        value *= Fraction(it ** jt, factorial(jt))
    return value
