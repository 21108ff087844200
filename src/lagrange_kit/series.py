"""Truncated power series and Laurent series over exact coefficient rings.

A ``PowerSeries`` stores the coefficients of x^0 .. x^(N-1); N is the *order*
(the exclusive truncation bound).  A ``LaurentSeries`` additionally allows a
finite range of negative exponents and stores the window
[min_exponent, order).  All series taking part in one computation must share
the same order; mixing orders raises ``OrderMismatch`` instead of silently
tracking a minimum.

Both types share one ring arithmetic, written once in the private base
``_Series`` on the stored window: a ``PowerSeries`` is the window from 0
(``min_exponent`` is 0 on the class).  A binary operation returns a
``LaurentSeries`` exactly when an operand is one, and then promotes a
``PowerSeries`` operand by ``to_laurent``.  Only the canonical forms
differ (a Laurent series drops leading zeros), and so do ``derivative``
and ``integral``, which stay per class because their zero entries differ
in type: ``PowerSeries.integral`` divides every entry, giving Fraction(0),
where the Laurent version leaves the int 0.

Coefficients may be ints, Fractions, or MultiPoly values; ints embed into
both rings, so 0 and 1 are used as universal padding constants.

Three kernels do the coefficient work, and each skips zero entries:
``_convolve`` every series product (power series, Laurent series, and the
powers inside ``reversion``); ``_divide`` every series quotient and
``PowerSeries.exp``, as one triangular recurrence; and ``_powers`` the walk
seq, seq^2, ... that ``compose`` and ``lagrange.solve_xR`` read.  Only this
module turns rational data into integers over one denominator: when all
coefficients are ints and Fractions, at least one a Fraction
(``_fraction_path``), a kernel scales its input by the lcm of its
denominators, works on integers, and builds one reduced Fraction per
result coefficient.  ``_divide`` holds the outputs found so far over one
running denominator, their lcm, and never clears denominators by powers of
the scaled divisor's constant term (199! for an exp-like divisor at order
200).  A chain of products converts once: ``_powers``, the integer ``**``
and ``compose``'s giant step hold each intermediate result as an integer
vector over one denominator and multiply with the product step
``_times``, which divides out the content gcd(den, *nums), so the
denominator stays the lcm of the entries' instead of growing like
(order - 1)!^k for exp; the Fractions are built once, from the last
result.  MultiPoly coefficients take the same loops with denominator 1.  A
series is false exactly when every stored coefficient is zero, so
``_convolve`` and ``_divide`` also skip the zero entries of sequences of
series, such as the z-expansions in ``lagrange``.

``reversion`` keeps its own walk of Fraction powers, one at a time, and its
own triangular solve: it is the independent route that ``solve_xR`` is
checked against, so the two must not share a walk.

``compose`` evaluates an outer polynomial of degree d in the inner series
by baby steps and giant steps (Paterson and Stockmeyer, SIAM J. Comput.
1973; Brent and Kung, J. ACM 1978): about 2 sqrt(d) series products
instead of Horner's d, with each block of outer coefficients summed
against the baby steps as integer dot products over one denominator, and
Horner's rule in the giant step run on integer vectors.
``LaurentSeries.product_coeff`` reads one coefficient of a product as one
dot product, without forming the rest.

Precision notes (standard truncated-arithmetic semantics):

* addition, multiplication and division of power series with invertible
  constant term are exact through x^(N-1);
* ``shift`` with negative k leaves the top |k| stored coefficients
  dependent on coefficients beyond the window, and Laurent division by a
  series of valuation v > 0 leaves the top 2v (the divisor's unit part is
  known v places short of the window, and the quotient starts v places
  lower).  They are filled as if the operands were polynomials: for
  example 1 / (x + x^2 + x^3 + x^4 + x^5 + O(x^6)) gives
  x^-1 - 1 + x^4 - x^5 + O(x^6), where x/(1-x) has 0 at x^4 and x^5.
  Callers that read coefficients near the top after such operations must
  build their inputs with slack.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    BadConstantTerm,
    DivisionByNonUnit,
    DivisionByZeroSeries,
    InadmissibleComposition,
    NonIntegrableResidue,
    NotReversible,
    OrderMismatch,
    OutOfPrecision,
)
from .scalars import (
    MultiPoly,
    _power,
    format_rational,
    parse_rational,
    scalar_div_int,
    scalar_inverse,
)


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction, MultiPoly))


def _same_order(a, b) -> None:
    if a.order != b.order:
        raise OrderMismatch(
            "cannot mix truncation orders %d and %d in one operation"
            % (a.order, b.order)
        )


def _fraction_path(*seqs) -> bool:
    """True when the entries of the sequences are ints and Fractions, at
    least one of them a Fraction: the rational kernels then work on integers
    over one denominator and return Fractions, with the int 0 for zero."""
    kinds = {type(c) for seq in seqs for c in seq}
    return Fraction in kinds and kinds <= {int, Fraction}


def _to_integers(*seqs):
    """The rational sequences scaled to integer lists by one lcm s of all
    their denominators, and s."""
    s = lcm(*(c.denominator for seq in seqs for c in seq))
    return [[c.numerator * (s // c.denominator) for c in seq] for seq in seqs], s


def _from_integers(nums, den) -> list:
    """The integers ``nums`` over ``den`` as reduced Fractions, with the int
    0 for zero; a ``den`` of None leaves native entries as they are."""
    if den is None:
        return nums
    return [Fraction(c, den) if c else 0 for c in nums]


def _nonzero_terms(seq) -> list:
    """The (index, entry) pairs of the nonzero entries of ``seq``."""
    return [(j, y) for j, y in enumerate(seq) if y]


def _product(a, b_terms, length: int) -> list:
    """The first ``length`` coefficients of a * b, where ``b_terms`` are the
    nonzero pairs of b (``_nonzero_terms``); zero entries of a are skipped.
    The entries are multiplied as they are, with no scaling."""
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if not x:
            continue
        room = length - i
        for j, y in b_terms:
            if j >= room:
                break
            out[i + j] += x * y
    return out


def _reduced(nums, den):
    """The integer vector ``nums`` over ``den`` with the content
    gcd(den, *nums) divided out, as (nums, den)."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return nums, den


def _times(x, y, length: int):
    """The product step of integer vectors over one denominator: x is
    (nums, den) and y is (terms, den), with terms the nonzero pairs of y's
    numerators.  Returns x * y cut to ``length`` entries as (nums, den),
    with the content divided out (``_reduced``).  A den of None marks
    native entries, ints or MultiPoly, which are multiplied unscaled."""
    (a, da), (b_terms, db) = x, y
    nums = _product(a, b_terms, length)
    if da is None:
        return nums, None
    return _reduced(nums, da * db)


def _convolve(a, b, length: int) -> list:
    """The first ``length`` coefficients of the product of the coefficient
    sequences ``a`` and ``b``: entry k is the sum of a[i] * b[k - i].

    Zero entries are skipped.  On the fraction path (``_fraction_path``)
    each operand is scaled to integers by the lcm of its denominators and
    every result is divided once by the product of the two scales: nonzero
    results are reduced Fractions, zero results the int 0.  Ints alone, and
    MultiPoly coefficients, take the same loop unscaled."""
    scale = None
    if _fraction_path(a, b):
        (a,), da = _to_integers(a)
        (b,), db = _to_integers(b)
        scale = da * db
    return _from_integers(_product(a, _nonzero_terms(b), length), scale)


def _powers(seq, count: int, length: int):
    """Yield seq^1 .. seq^count as pairs (power, den), each product cut to
    ``length`` entries by the product step ``_times``.  On the fraction
    path seq is scaled to integers once and each power is an integer
    vector over den with its content divided out.  Otherwise the powers
    hold their native entries, ints or MultiPoly, and den is None."""
    power, den = seq, None
    if _fraction_path(seq):
        (power,), den = _to_integers(seq)
    base = _nonzero_terms(power), den
    for k in range(count):
        if k:
            power, den = _times((power, den), base, length)
        yield power, den


def _divide(a, b, inv0, length: int, by_index: bool = False) -> list:
    """The first ``length`` coefficients of the quotient of the coefficient
    sequences ``a`` and ``b``, where ``inv0`` is the inverse of b[0]: entry
    m is (a[m] - sum of q[m - j] * b[j] over 0 < j <= m) * inv0.  With
    ``by_index``, b[j] counts as -j b[j] and entry m > 0 is divided by m
    too, its leading term: for a = [1] and inv0 = 1 that is the recurrence
    m q_m = sum of j b[j] q[m - j] of exp(b).

    Entries past the end of ``a`` or ``b`` read as zero.  On the fraction
    path of ``a``, ``b`` and ``inv0`` the quotient entries found so far are
    held as integer numerators over one running denominator, so each sum is
    an integer dot product.  Otherwise the same loop runs unscaled."""
    a = a[:length]
    b = b[:length]
    rational = _fraction_path(a, b, (inv0,))
    if rational:
        (a, b), s = _to_integers(a, b)
        # entry m is (acc / den) * inv0 / s for the integer sum acc below
        num, den_scale = inv0.numerator, inv0.denominator * s
    nonzero_b = [(j, -j * y if by_index else y) for j, y in enumerate(b[1:], 1) if y]
    q = []  # the quotient so far; over den when rational
    out = [] if rational else q
    den = 1
    for m in range(length):
        acc = a[m] if m < len(a) else 0
        if den != 1:
            acc = acc * den
        for j, y in nonzero_b:
            if j > m:
                break
            x = q[m - j]
            if x:
                acc = acc - x * y
        w = m if by_index and m else 1
        if not rational:
            q.append(acc * inv0 if w == 1 else scalar_div_int(acc * inv0, w))
            continue
        c = Fraction(acc * num, w * den * den_scale)
        out.append(c)
        # hold c over den too, rescaling the held entries if den must grow
        d = c.denominator
        grow = d // gcd(den, d)
        if grow != 1:
            q = [x * grow for x in q]
            den *= grow
        q.append(c.numerator * (den // d))
    return out


class _Series:
    """The ring operations of both series types, on the stored window
    [min_exponent, order); a ``PowerSeries`` is the window from 0.  A
    binary operation returns a ``LaurentSeries`` exactly when an operand is
    one, with a ``PowerSeries`` operand promoted by ``to_laurent``."""

    __slots__ = ("coeffs", "order")

    def _pair(self, other):
        """self and the series ``other`` as two series of the result's type."""
        _same_order(self, other)
        if type(self) is type(other):
            return self, other
        return _as_laurent(self), _as_laurent(other)

    def _window(self, m: int):
        """The coefficients of x^m .. x^(order-1), for m <= min_exponent."""
        pad = self.min_exponent - m
        return (0,) * pad + self.coeffs if pad else self.coeffs

    # -- structure ---------------------------------------------------------

    def coeff(self, n: int):
        if n >= self.order:
            raise OutOfPrecision(
                "coefficient %d requested from a series of order %d" % (n, self.order)
            )
        if n < self.min_exponent:
            return 0
        return self.coeffs[n - self.min_exponent]

    def valuation(self):
        """Exponent of the first nonzero stored coefficient, or None if all zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.min_exponent + i
        return None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not self

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _Series):
            a, b = self._pair(other)
            m = min(a.min_exponent, b.min_exponent)
            return a._make([x + y for x, y in zip(a._window(m), b._window(m))], m)
        if _is_scalar(other):
            m = min(self.min_exponent, 0)
            out = list(self._window(m))
            out[0 - m] = out[0 - m] + other
            return self._make(out, m)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._make([-c for c in self.coeffs], self.min_exponent)

    def __sub__(self, other):
        if isinstance(other, _Series):
            return self + (-other)
        if _is_scalar(other):
            return self + (-1 * other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Series):
            a, b = self._pair(other)
            m = a.min_exponent + b.min_exponent
            if m >= a.order:
                return a._make([], 0)
            return a._make(_convolve(a.coeffs, b.coeffs, a.order - m), m)
        if _is_scalar(other):
            return self._make([c * other for c in self.coeffs], self.min_exponent)
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return self._make([other * c for c in self.coeffs], self.min_exponent)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _Series):
            a, b = self._pair(other)
            if isinstance(a, LaurentSeries):
                if not b:
                    raise DivisionByZeroSeries("division by the zero series")
                if not a:
                    return a._make([], 0)
            elif not b.coeffs[0]:
                raise DivisionByNonUnit(
                    "divisor has zero constant term; divide as Laurent series instead"
                )
            # a Laurent divisor's first stored coefficient is its leading one
            inv0 = scalar_inverse(b.coeffs[0])
            m = a.min_exponent - b.min_exponent
            if m >= a.order:
                return a._make([], 0)
            return a._make(_divide(a.coeffs, b.coeffs, inv0, a.order - m), m)
        if _is_scalar(other):
            inv = scalar_inverse(other)
            return self._make([c * inv for c in self.coeffs], self.min_exponent)
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_scalar(other):
            return self._make([other], 0) / self
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError(
                "** takes integer exponents; use PowerSeries.pow for rational ones"
            )
        one = self._make([1], 0)
        base = one / self if k < 0 else self
        k = abs(k)
        if not k or not _fraction_path(base.coeffs):
            return _power(base, k, one)
        # scale once, then power (min_exponent, nums, den) triples with the
        # integer product step: each product has the window and length of
        # the series product, so the entries filled as if the operands were
        # polynomials are the same; the Fractions are built once
        n = self.order

        def times(x, y):
            (ma, a, da), (mb, b, db) = x, y
            m = ma + mb
            if m >= n:
                return 0, [0] * n, 1
            return (m, *_times((a, da), (_nonzero_terms(b), db), n - m))

        (nums,), den = _to_integers(base.coeffs)
        m, nums, den = _power((base.min_exponent, nums, den), k, (0, [1], 1), times)
        return self._make(_from_integers(nums, den), m)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, _Series):
            return NotImplemented
        a, b = self._pair(other)
        m = min(a.min_exponent, b.min_exponent)
        return a._window(m) == b._window(m)

    def __hash__(self):
        # over the canonical window, so that equal series of either type agree
        v = self.valuation()
        start = len(self.coeffs) if v is None else v - self.min_exponent
        return hash((self.order, v, self.coeffs[start:]))

    def __str__(self):
        return _render(self.coeffs, self.min_exponent, self.order)

    def __repr__(self):
        return "%s(order=%d: %s)" % (type(self).__name__, self.order, self)


def _as_laurent(s: _Series) -> "LaurentSeries":
    return s.to_laurent() if isinstance(s, PowerSeries) else s


class PowerSeries(_Series):
    """A series c_0 + c_1 x + ... + c_(N-1) x^(N-1) + O(x^N)."""

    __slots__ = ()
    min_exponent = 0

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError("order must be at least 1")
        if len(coeffs) > order:
            raise ValueError("more coefficients than the truncation order admits")
        coeffs.extend([0] * (order - len(coeffs)))
        self.coeffs = tuple(coeffs)
        self.order = order

    def _make(self, coeffs, min_exponent: int) -> "PowerSeries":
        # the window of a power series result starts at x^0
        return PowerSeries(coeffs, self.order)

    # -- simple structure ----------------------------------------------

    @property
    def constant_term(self):
        return self.coeffs[0]

    def truncated(self, order: int) -> "PowerSeries":
        if not 1 <= order <= self.order:
            raise ValueError("can only truncate to a smaller positive order")
        return PowerSeries(self.coeffs[:order], order)

    def to_laurent(self) -> "LaurentSeries":
        return LaurentSeries(self.coeffs, 0, self.order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by x^k (any integer k); the result is a Laurent series."""
        return self.to_laurent().shift(k)

    def pow(self, e) -> "PowerSeries":
        """General power: self ** e for an integral e, otherwise
        exp(e log(self)), which needs constant term 1."""
        e = Fraction(e)
        if e.denominator == 1:
            return self ** int(e)
        if not (self.coeffs[0] == 1):
            raise BadConstantTerm("fractional power needs constant term 1")
        return (e * self.log()).exp()

    # -- calculus --------------------------------------------------------

    def derivative(self) -> "PowerSeries":
        out = [(i + 1) * c for i, c in enumerate(self.coeffs[1:])]
        out.append(0)
        return PowerSeries(out, self.order)

    def integral(self) -> "PowerSeries":
        out = [0]
        out.extend(
            scalar_div_int(c, i + 1) for i, c in enumerate(self.coeffs[: self.order - 1])
        )
        return PowerSeries(out, self.order)

    def exp(self) -> "PowerSeries":
        """exp(self) by the recurrence m y_m = sum of k a_k y_(m-k) over
        0 < k <= m, run by ``_divide``'s loop."""
        if self.coeffs[0] != 0:
            raise BadConstantTerm("exp needs zero constant term")
        y = _divide([1], self.coeffs, Fraction(1), self.order, by_index=True)
        y[0] = 1  # the int 1, not the loop's Fraction(1)
        return PowerSeries(y, self.order)

    def log(self) -> "PowerSeries":
        if self.coeffs[0] != 1:
            raise BadConstantTerm("log needs constant term 1")
        return (self.derivative() / self).integral()

    def reversion(self) -> "PowerSeries":
        """The unique g with self(g(x)) = x = g(self(x)), found by solving the
        triangular linear system sum_j g_j self^j = x on the coefficients of
        the powers of self, walked one power at a time."""
        n = self.order
        if n < 2:
            raise NotReversible("order too small to determine the linear coefficient")
        if self.coeffs[0] != 0:
            raise NotReversible("constant term must vanish")
        try:
            inv_c1 = scalar_inverse(self.coeffs[1])
        except DivisionByNonUnit as exc:
            raise NotReversible("linear coefficient is not invertible") from exc
        # acc[m] sums g_j [x^m] self^j over the j solved so far
        g = [0] * n
        g[1] = inv_c1
        acc = [0] * n
        power = self.coeffs
        c1pow = inv_c1
        for j in range(1, n):
            if j > 1:
                c1pow = c1pow * inv_c1
                g[j] = -acc[j] * c1pow
            gj = g[j]
            if gj:
                for m in range(j + 1, n):
                    a = power[m]
                    if a:
                        acc[m] = acc[m] + gj * a
            if j < n - 2:
                power = _convolve(power, self.coeffs, n)
        return PowerSeries(g, n)


class LaurentSeries(_Series):
    """A series with finitely many negative exponents, stored on
    [min_exponent, order).  Canonical form: either the zero series
    (min_exponent 0) or a nonzero leading stored coefficient."""

    __slots__ = ("min_exponent",)

    def __init__(self, coeffs, min_exponent: int = 0, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = min_exponent + len(coeffs)
        if order < 1:
            raise ValueError("order must be at least 1")
        if min_exponent + len(coeffs) > order:
            raise ValueError("coefficients extend beyond the truncation order")
        coeffs.extend([0] * (order - min_exponent - len(coeffs)))
        start = 0
        while start < len(coeffs) and not coeffs[start]:
            start += 1
        if start == len(coeffs):
            min_exponent = 0
            coeffs = [0] * order
        elif start:
            min_exponent += start
            coeffs = coeffs[start:]
        self.coeffs = tuple(coeffs)
        self.min_exponent = min_exponent
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return cls([], 0, order)

    def _make(self, coeffs, min_exponent: int) -> "LaurentSeries":
        return LaurentSeries(coeffs, min_exponent, self.order)

    # -- structure ---------------------------------------------------------

    def residue(self):
        """The coefficient of x^(-1)."""
        return self.coeff(-1)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by x^k.  For k < 0 the top |k| stored entries are filled
        as if the series were a polynomial."""
        if k == 0 or self.is_zero():
            return self
        if self.min_exponent + k >= self.order:
            return LaurentSeries.zero(self.order)
        vals = list(self.coeffs)
        if k > 0:
            vals = vals[: max(0, len(vals) - k)]
        else:
            vals = vals + [0] * (-k)
        return LaurentSeries(vals, self.min_exponent + k, self.order)

    def to_power_series(self) -> PowerSeries:
        if self.min_exponent < 0:
            raise ValueError("series has negative exponents")
        return PowerSeries(
            [0] * self.min_exponent + list(self.coeffs), self.order
        )

    def product_coeff(self, other, n: int):
        """[x^n] (self * other) for a series ``other``, read as one dot
        product instead of forming the whole product: the value of
        ``(self * other).coeff(n)``, of the same type."""
        if not isinstance(other, _Series):
            raise TypeError("not a series: %r" % (other,))
        o = _as_laurent(other)
        _same_order(self, o)
        if n >= self.order:
            raise OutOfPrecision(
                "coefficient %d requested from a series of order %d" % (n, self.order)
            )
        k = n - self.min_exponent - o.min_exponent
        if k < 0 or self.is_zero() or o.is_zero():
            return 0
        a, b = self.coeffs, o.coeffs
        total = 0
        for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
            x, y = a[i], b[k - i]
            if x and y:
                total = total + x * y
        # entry k of _convolve(a, b, k + 1), typed as there
        if _fraction_path(a, b):
            return Fraction(total) if total else 0
        return total

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "LaurentSeries":
        if self.is_zero():
            return LaurentSeries.zero(self.order)
        m = self.min_exponent
        out = [0] * (self.order - (m - 1))
        for i, c in enumerate(self.coeffs):
            e = m + i
            if e == 0 or not c:
                continue
            out[e - 1 - (m - 1)] = e * c
        return LaurentSeries(out, m - 1, self.order)

    def integral(self) -> "LaurentSeries":
        if self.residue() != 0:
            raise NonIntegrableResidue("nonzero residue has no Laurent antiderivative")
        m = self.min_exponent
        out = [0] * (self.order - (m + 1))
        for i, c in enumerate(self.coeffs):
            e = m + i
            if e == -1 or not c or e + 1 >= self.order:
                continue
            out[e + 1 - (m + 1)] = scalar_div_int(c, e + 1)
        return LaurentSeries(out, m + 1, self.order)


def _render(coeffs, min_exponent, order) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        e = min_exponent + i
        if e == 0:
            body = str(c)
        else:
            xs = "x" if e == 1 else "x^%d" % e
            if c == 1:
                body = xs
            elif c == -1:
                body = "-" + xs
            else:
                body = "%s*%s" % (c, xs)
        parts.append(body)
    if not parts:
        text = "0"
    else:
        text = parts[0]
        for body in parts[1:]:
            if body.startswith("-"):
                text += " - " + body[1:]
            else:
                text += " + " + body
    return text + " + O(x^%d)" % order


def compose(outer, inner: PowerSeries):
    """Substitute ``inner`` into ``outer``.

    Admissible when the inner series has zero constant term.  A Laurent
    outer series requires an inner series of valuation exactly 1; its
    negative powers are summed one power of 1/inner at a time.

    A power series outer of degree d (its last nonzero coefficient) is
    evaluated by baby steps and giant steps (Paterson and Stockmeyer): with
    s = ceil(sqrt(d + 1)), each block of s outer coefficients is summed
    against the baby steps inner^0 .. inner^(s-1), and when d >= s Horner's
    rule in the giant step inner^s combines the blocks.  That is about
    2 sqrt(d) series products where Horner's rule in inner takes d: none
    for a linear outer, two for a quadratic one.  The baby steps and the
    giant step come from one power walk, ``_powers``.  On the fraction path
    the baby steps are integer vectors over one denominator, so each block
    sum is an integer dot product, and Horner's rule keeps the running sum
    as one integer vector over one denominator: each step is the product
    step ``_times`` by the giant step plus the next block, and the Fractions
    are built once, at the end.  The constant
    coefficient is added last, as a scalar, so the values, and for rational
    data and an inner series of valuation 1 the coefficient types, are
    those of Horner's rule.
    """
    if isinstance(inner, LaurentSeries):
        raise InadmissibleComposition("inner operand must be a power series")
    if isinstance(outer, LaurentSeries):
        _same_order(outer, inner)
        if inner.valuation() != 1:
            raise InadmissibleComposition(
                "a Laurent outer series needs an inner series of valuation 1"
            )
        n = outer.order
        pos = PowerSeries([outer.coeff(k) for k in range(n)], n)
        result = compose(pos, inner).to_laurent()
        if outer.min_exponent < 0:
            inv_inner = LaurentSeries([1], 0, n) / inner.to_laurent()
            p = inv_inner
            for k in range(-1, outer.min_exponent - 1, -1):
                c = outer.coeff(k)
                if c:
                    result = result + p * c
                if k > outer.min_exponent:
                    p = p * inv_inner
        return result
    if not isinstance(outer, PowerSeries):
        raise InadmissibleComposition("outer operand must be a series")
    _same_order(outer, inner)
    if inner.coeffs[0] != 0:
        raise InadmissibleComposition("inner constant term must vanish")
    n = outer.order
    top = max((i for i, c in enumerate(outer.coeffs) if c), default=0)
    s = isqrt(top) + 1
    terms = [0] + list(outer.coeffs[1 : top + 1])  # c_0 is added last
    # the baby steps inner^0 .. inner^(s-1), then inner^s if top >= s
    powers = [([1], None), *_powers(inner.coeffs, min(s, top), n)]
    if _fraction_path([c for c in terms if c], inner.coeffs):
        # every power over its denominator, 1 for an integer inner series
        powers = [(p, p_den or 1) for p, p_den in powers]
        d = lcm(*(p_den for _, p_den in powers[:s]))
        baby = [[c * (d // p_den) for c in p] for p, p_den in powers[:s]]
        (terms,), e = _to_integers(terms)
        den = d * e
    else:
        powers = [(_from_integers(p, p_den), None) for p, p_den in powers]
        baby = [p for p, _ in powers[:s]]
        den = None
    baby = [_nonzero_terms(p) for p in baby]
    blocks = []
    for start in range(0, top + 1, s):
        block = [0] * n
        for i, c in enumerate(terms[start : start + s]):
            if c:
                for m, y in baby[i]:
                    block[m] += c * y
        blocks.append(block)
    acc, acc_den = blocks.pop(), den
    if blocks:
        giant, giant_den = powers[s]
        giant = _nonzero_terms(giant), giant_den
    while blocks:
        # Horner's rule in the giant step; on the fraction path acc is one
        # integer vector over acc_den
        (acc, acc_den), block = _times((acc, acc_den), giant, n), blocks.pop()
        if den is None:
            # a zero sum is the int 0, as on the fraction path
            acc = [(x + y) or 0 for x, y in zip(acc, block)]
        else:
            common = lcm(acc_den, den)
            acc, acc_den = _reduced(
                [
                    x * (common // acc_den) + y * (common // den)
                    for x, y in zip(acc, block)
                ],
                common,
            )
    result = PowerSeries(_from_integers(acc, acc_den), n)
    c0 = outer.coeffs[0]
    return result + c0 if c0 else result


def series_to_json(s) -> dict:
    """Serialize a series to the canonical JSON shape."""
    if not isinstance(s, _Series):
        raise TypeError("not a series: %r" % (s,))
    m, coeffs = s.min_exponent, s.coeffs
    variables = None
    enc = []
    for c in coeffs:
        if isinstance(c, MultiPoly):
            variables = list(c.vars)
            enc.append(c.to_json())
        else:
            enc.append(format_rational(c))
    out = {"min_exponent": m, "order": s.order, "coefficients": enc}
    if variables is not None:
        out["variables"] = variables
    return out


def series_from_json(obj: dict):
    """Inverse of series_to_json; returns a PowerSeries when no negative
    exponents are present, otherwise a LaurentSeries."""
    m = int(obj.get("min_exponent", 0))
    order = int(obj["order"])
    variables = tuple(obj["variables"]) if "variables" in obj else None
    coeffs = []
    for item in obj["coefficients"]:
        if isinstance(item, dict):
            if variables is None:
                raise ValueError("polynomial coefficients need a variables list")
            coeffs.append(MultiPoly.from_json(variables, item))
        else:
            coeffs.append(parse_rational(str(item)))
    if m >= 0:
        return PowerSeries([0] * m + coeffs, order)
    return LaurentSeries(coeffs, m, order)
