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
differ: a Laurent series drops leading zeros.

Coefficients may be ints, Fractions, or MultiPoly values; ints embed into
both rings, so 0 and 1 are used as universal padding constants.

A series holds one exact form, (nums, den).  Rational data (ints and
Fractions, one of them a nonzero Fraction) is held as FLINT's ``fmpq_poly``
holds it: integer numerators over one positive denominator, with the content
gcd(den, *nums) divided out, so that den is the lcm of the entries' own
denominators and equal series hold equal forms.  The constructor converts a
list once; every operation works on the integers and returns this form, so
sums and equality checks are integer comparisons.  The Fractions are built
only when ``coeffs``, ``coeff`` or ``str`` read them: a reduced
Fraction for each nonzero entry and the int 0 for each zero one.  Ints
alone, MultiPoly values and the zero series keep their native entries
with den None and run the same loops unscaled; an int-only operand meets
a rational one over den 1 (``_one_path``), and rational data meets
MultiPoly data as Fractions.

Three kernels do the coefficient work, and each skips zero entries:
``_times`` every series product (``_product``, then the content);
``_quotient`` every series quotient and ``PowerSeries.exp``, as one
triangular recurrence whose entries found so far are held over one
running denominator, their lcm, never over powers of the divisor's
constant term (199! for an exp-like divisor at order 200); and ``_powers``
the walk seq, seq^2, ... that ``compose`` and ``lagrange.solve_xR`` read.
Each power k of seq of degree d is formed only up to entry d k, since
every entry above it is zero.  ``compose`` reads whole powers.
``solve_xR`` reads two entries of each power, k - 1 and k - j for f^j,
so its walk is windowed too: entry i of seq^k feeds only entries
i .. i + d (K - k) of a later seq^K, so each power is formed only from
the lowest entry that a later read can reach.  For linear seq the walk
is then linear in the order; a dense seq (exp, geom) keeps every entry
but in the last power, so it neither gains nor loses.
A series is false exactly when every stored coefficient is zero, so
``_product`` and ``_quotient`` also skip the zero entries of lists of series,
such as the z-expansions in ``lagrange``.

``reversion`` keeps its own walk of powers, one series product at a time,
into a Fraction accumulator: it is the independent route that
``solve_xR`` is checked against, so the two must not share a walk.

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
from operator import add, itemgetter

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
    _sum_text,
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


def _reduced(nums, den):
    """The form ``nums`` over ``den`` with the content gcd(den, *nums)
    divided out; a den of None marks native entries."""
    if den is None:
        return nums, None
    g = gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return nums, den


def _integer_form(entries):
    """The form of a list: over one denominator when its entries are ints
    and Fractions, one of them a Fraction, reduced as each entry is;
    otherwise native, den None."""
    kinds = set(map(type, entries))
    if Fraction not in kinds or not kinds <= {int, Fraction}:
        return entries, None
    d = lcm(*(c.denominator for c in entries))
    return [c.numerator * (d // c.denominator) for c in entries], d


def _scalar_form(c):
    """The scalar c as a one-entry form."""
    return ([c.numerator], c.denominator) if isinstance(c, Fraction) else ([c], None)


def _entries(nums, den) -> tuple:
    """The entries of a form as ``coeffs`` reads them: native ones as they
    are, else a reduced Fraction per nonzero entry and the int 0 per zero."""
    if den is None:
        return tuple(nums)
    return tuple(Fraction(c, den) if c else 0 for c in nums)


def _one_path(*forms):
    """The forms on one path: unchanged when all are native; over integer
    denominators when each is rational or int-only (den 1); otherwise all
    native, the rational ones read as ``_entries``."""
    if not any(map(itemgetter(1), forms)):
        return forms
    ints = {int}.issuperset
    lifted = [(n, 1 if d is None and ints(map(type, n)) else d) for n, d in forms]
    if all(d is not None for _, d in lifted):
        return lifted
    return [(_entries(n, d), None) for n, d in forms]


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


def _times(x, y, length: int):
    """The product step of forms on one path, x (nums, den) and y (terms,
    den) with terms y's nonzero pairs: x * y cut to ``length``, reduced."""
    (a, da), (b_terms, db) = x, y
    return _reduced(_product(a, b_terms, length), da and da * db)


def _add(x, y):
    """The entrywise sum of two forms of one length on one path, reduced."""
    (a, da), (b, db) = x, y
    if da is None:
        return list(map(add, a, b)), None
    d = lcm(da, db)
    sa, sb = d // da, d // db
    return _reduced([p * sa + q * sb for p, q in zip(a, b)], d)


def _powers(form, count: int, length: int, span: int = 0):
    """Yield (power, low) for form^1 .. form^count, where power is the form
    (nums, den) of the entries low .. top of that power, top = min(d k,
    length - 1) for power k and d the index of form's last nonzero entry,
    taken as at least 1.  Entries above d k are zero, so each step is the
    product step of ``_times`` on the last power's entries up to its own
    top alone, times form's nonzero terms, reduced.

    Without ``span`` low is 0.  With ``span``, the walk serves reads of
    entry length - span - (count - K) and above of each power K; entry j of
    power k feeds only entries j .. j + d (K - k) of a later power K, so
    power k holds only its entries from low = max(0, length - span -
    d (count - k)), and each step drops the d or fewer entries it forms
    below the next window."""
    nums, den = form
    terms = _nonzero_terms(nums)
    degree = max(terms[-1][0] if terms else 0, 1)
    start = 0
    for k in range(1, count + 1):
        low = max(0, length - span - degree * (count - k)) if span else 0
        top = min(degree * k, length - 1)
        if k > 1:
            nums = _product(nums, terms, top + 1 - start)
            den = den and den * form[1]
        nums, den = _reduced(nums[low - start : top + 1 - start], den)
        start = low
        yield (nums, den), low


def _quotient(x, y, inv0, length: int, by_index: bool = False):
    """The first ``length`` entries of the quotient of the forms x and y,
    where ``inv0`` is the inverse of y's first entry, as a form: entry m is
    (a[m] - sum of q[m - j] * b[j] over 0 < j <= m) * inv0.  With
    ``by_index``, b[j] counts as -j b[j] and entry m > 0 is divided by m
    too, its leading term: for a = [1] and inv0 = 1 that is the recurrence
    m q_m = sum of j b[j] q[m - j] of exp(b).

    Entries past the end of a or b read as zero.  On the rational path of
    x, y and ``inv0`` the entries found so far are held as integers over
    one running denominator, their lcm, so each sum is an integer dot
    product; the result is that form, a zero one included.  Otherwise the
    same loop runs unscaled."""
    (a, da), (b, db), ((num,), di) = _one_path(x, y, _scalar_form(inv0))
    a, b = a[:length], b[:length]
    if da is not None and da != db:
        s = lcm(da, db)
        a, b, da = [c * (s // da) for c in a], [c * (s // db) for c in b], s
    nonzero_b = [(j, -j * y if by_index else y) for j, y in enumerate(b[1:], 1) if y]
    q = []  # the quotient so far, over den on the rational path
    den = 1
    for m in range(length):
        acc = a[m] if m < len(a) else 0
        if den != 1:
            acc = acc * den
        for j, y in nonzero_b:
            if j > m:
                break
            v = q[m - j]
            if v:
                acc = acc - v * y
        w = m if by_index and m else 1
        if da is None:
            q.append(acc * num if w == 1 else scalar_div_int(acc * num, w))
            continue
        # entry m is top / bottom in lowest terms, d its denominator; hold
        # it over den too, rescaling the held entries if den must grow
        top, bottom = acc * num, w * den * da * di
        g = gcd(top, bottom)
        d = bottom // g
        grow = d // gcd(den, d)
        if grow != 1:
            q = [v * grow for v in q]
            den *= grow
        q.append(top // g * (den // d))
    return q, None if da is None else den


class _Series:
    """The ring operations of both series types, on the stored window
    [min_exponent, order); a ``PowerSeries`` is the window from 0.  A
    binary operation returns a ``LaurentSeries`` exactly when an operand is
    one, with a ``PowerSeries`` operand promoted by ``to_laurent``.  The
    window holds the form (nums, den) of the module docstring."""

    __slots__ = ("_nums", "_den", "order")

    @classmethod
    def _from(cls, nums, den, min_exponent: int, order: int):
        """The series of the form nums over den, reduced, from x^min_exponent."""
        s = cls.__new__(cls)
        if den is not None:
            nums, den = _reduced(nums, den)
        s._store(nums, den, min_exponent, order)
        return s

    def _make(self, nums, den=None, min_exponent: int = 0):
        return self._from(nums, den, min_exponent, self.order)

    @property
    def _form(self):
        return self._nums, self._den

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients, built from the form when read."""
        return _entries(self._nums, self._den)

    def _entry(self, i: int):
        """Stored coefficient i, as ``coeffs`` reads it, built alone."""
        c = self._nums[i]
        return Fraction(c, self._den) if self._den and c else c

    def _pair(self, other):
        """self and the series ``other`` as two series of the result's type."""
        _same_order(self, other)
        if type(self) is type(other):
            return self, other
        return _as_laurent(self), _as_laurent(other)

    def _window(self, m: int):
        """The numerators of x^m .. x^(order-1), for any m < order."""
        pad = self.min_exponent - m
        return (0,) * pad + self._nums if pad >= 0 else self._nums[-pad:]

    # -- structure ---------------------------------------------------------

    def coeff(self, n: int):
        if n >= self.order:
            raise OutOfPrecision(
                "coefficient %d requested from a series of order %d" % (n, self.order)
            )
        if n < self.min_exponent:
            return 0
        return self._entry(n - self.min_exponent)

    def valuation(self):
        """Exponent of the first nonzero stored coefficient, or None if all zero."""
        for i, c in enumerate(self._nums):
            if c:
                return self.min_exponent + i
        return None

    def __bool__(self) -> bool:
        return any(self._nums)

    def is_zero(self) -> bool:
        return not self

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, _Series):
            if not _is_scalar(other):
                return NotImplemented
            other = self._make(*_scalar_form(other))
        a, b = self._pair(other)
        m = min(a.min_exponent, b.min_exponent)
        x, y = (a._window(m), a._den), (b._window(m), b._den)
        return a._make(*_add(*_one_path(x, y)), m)

    __radd__ = __add__

    def __neg__(self):
        return self._make([-c for c in self._nums], self._den, self.min_exponent)

    def __sub__(self, other):
        if isinstance(other, _Series) or _is_scalar(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            (a, da), ((c,), dc) = _one_path(self._form, _scalar_form(other))
            return self._make([x * c for x in a], da and da * dc, self.min_exponent)
        if not isinstance(other, _Series):
            return NotImplemented
        a, b = self._pair(other)
        m = a.min_exponent + b.min_exponent
        if m >= a.order:
            return a._make([])
        x, (y, dy) = _one_path(a._form, b._form)
        return a._make(*_times(x, (_nonzero_terms(y), dy), a.order - m), m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            return self * scalar_inverse(other)
        if not isinstance(other, _Series):
            return NotImplemented
        a, b = self._pair(other)
        if isinstance(a, LaurentSeries):
            if not b:
                raise DivisionByZeroSeries("division by the zero series")
            if not a:
                return a._make([])
        elif not b._nums[0]:
            raise DivisionByNonUnit(
                "divisor has zero constant term; divide as Laurent series instead"
            )
        # a Laurent divisor's first stored coefficient is its leading one
        inv0 = scalar_inverse(b._entry(0))
        m = a.min_exponent - b.min_exponent
        if m >= a.order:
            return a._make([])
        return a._make(*_quotient(a._form, b._form, inv0, a.order - m), m)

    def __rtruediv__(self, other):
        if _is_scalar(other):
            return self._make(*_scalar_form(other)) / self
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError(
                "** takes integer exponents; use PowerSeries.pow for rational ones"
            )
        # binary powering by series products: on power series it fills
        # the entries of the chain of products; on Laurent windows with
        # negative exponents the top entries, which each product fills as
        # if the operands were polynomials, can differ from the chain's
        one = self._make([1])
        return _power(one / self if k < 0 else self, abs(k), one)

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        """Term by term; the x^(order-1) entry, which reads x^order, is 0."""
        m = self.min_exponent
        nums = [(m + i) * c if m + i else 0 for i, c in enumerate(self._nums)]
        return self._make(nums + [0], self._den, m - 1)

    def integral(self):
        """Term by term; the x^(order-1) entry moves past the window."""
        if self.coeff(-1) != 0:
            raise NonIntegrableResidue("nonzero residue has no Laurent antiderivative")
        m = self.min_exponent
        # the rational path unless an entry is a MultiPoly value
        (nums, den), _ = _one_path((self._nums[:-1], self._den), ((), 1))
        divisors = [m + i + 1 or 1 for i in range(len(nums))]
        if den is None:
            nums = [scalar_div_int(c, e) for c, e in zip(nums, divisors)]
        else:
            s = lcm(*divisors)
            nums, den = [c * (s // e) for c, e in zip(nums, divisors)], den * s
        return self._make(nums, den, m + 1)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, _Series):
            return NotImplemented
        a, b = self._pair(other)
        m = min(a.min_exponent, b.min_exponent)
        (x, dx), (y, dy) = _one_path((a._window(m), a._den), (b._window(m), b._den))
        return dx == dy and x == y

    def __hash__(self):
        # over the canonical window, so that equal series of either type agree
        v = self.valuation()
        start = len(self._nums) if v is None else v - self.min_exponent
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
        self._store(*_integer_form(coeffs), 0, order)

    def _store(self, nums, den, min_exponent: int, order: int) -> None:
        nums = tuple(nums)
        if min_exponent:  # derivative and integral move the window by one
            nums = (0,) * min_exponent + nums[max(-min_exponent, 0) :]
        if len(nums) < order:
            nums += (0,) * (order - len(nums))
        self._nums = nums
        # the zero series reads natively
        self._den = den if den and any(nums) else None
        self.order = order

    # -- simple structure ----------------------------------------------

    @property
    def constant_term(self):
        return self._entry(0)

    def truncated(self, order: int) -> "PowerSeries":
        if not 1 <= order <= self.order:
            raise ValueError("can only truncate to a smaller positive order")
        return PowerSeries._from(self._nums[:order], self._den, 0, order)

    def to_laurent(self) -> "LaurentSeries":
        return LaurentSeries._from(self._nums, self._den, 0, self.order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by x^k (any integer k); the result is a Laurent series."""
        return self.to_laurent().shift(k)

    def pow(self, e) -> "PowerSeries":
        """General power: self ** e for an integral e, otherwise
        exp(e log(self)), which needs constant term 1."""
        e = Fraction(e)
        if e.denominator == 1:
            return self ** int(e)
        if not (self._entry(0) == 1):
            raise BadConstantTerm("fractional power needs constant term 1")
        return (e * self.log()).exp()

    # -- calculus --------------------------------------------------------

    def exp(self) -> "PowerSeries":
        """exp(self) by the recurrence m y_m = sum of k a_k y_(m-k) over
        0 < k <= m, run by ``_quotient``'s loop."""
        if self._nums[0]:
            raise BadConstantTerm("exp needs zero constant term")
        # a Fraction inv0 puts int-only data on the rational path
        one = Fraction(1)
        return self._make(*_quotient(([1], None), self._form, one, self.order, True))

    def log(self) -> "PowerSeries":
        if self._entry(0) != 1:
            raise BadConstantTerm("log needs constant term 1")
        return (self.derivative() / self).integral()

    def reversion(self) -> "PowerSeries":
        """The unique g with self(g(x)) = x = g(self(x)), found by solving the
        triangular linear system sum_j g_j self^j = x on the coefficients of
        the powers of self, each the series product of the last and self."""
        n = self.order
        if n < 2:
            raise NotReversible("order too small to determine the linear coefficient")
        coeffs = self.coeffs
        if coeffs[0] != 0:
            raise NotReversible("constant term must vanish")
        try:
            inv_c1 = scalar_inverse(coeffs[1])
        except DivisionByNonUnit as exc:
            raise NotReversible("linear coefficient is not invertible") from exc
        # acc[m] sums g_j [x^m] self^j over the j solved so far
        g = [0] * n
        g[1] = inv_c1
        acc = [0] * n
        power = self
        c1pow = inv_c1
        for j in range(1, n):
            if j > 1:
                c1pow = c1pow * inv_c1
                g[j] = -acc[j] * c1pow
            gj = g[j]
            if gj:
                for m, a in enumerate(power.coeffs[j + 1 :], j + 1):
                    if a:
                        acc[m] = acc[m] + gj * a
            if j < n - 2:
                power = power * self
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
        self._store(*_integer_form(coeffs), min_exponent, order)

    def _store(self, nums, den, min_exponent: int, order: int) -> None:
        start = next((i for i, c in enumerate(nums) if c), None)
        if start is None:
            nums, den, min_exponent = (), None, 0
        else:
            nums = tuple(nums[start:])
            min_exponent += start
        self._nums = nums + (0,) * (order - min_exponent - len(nums))
        self._den, self.order, self.min_exponent = den, order, min_exponent

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
            return self._make([])
        nums = self._nums[: max(0, len(self._nums) - k)] if k > 0 else self._nums
        return self._make(nums, self._den, self.min_exponent + k)

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
        (a, da), (b, db) = _one_path(self._form, o._form)
        total = 0
        for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
            x, y = a[i], b[k - i]
            if x and y:
                total = total + x * y
        return Fraction(total, da * db) if da and total else total


def _monomials(coeffs, min_exponent=0):
    """The (coefficient, monomial text) pairs of the nonzero entries of
    ``coeffs``, the first at x^min_exponent, for ``scalars._sum_text``."""
    return (
        (c, "" if e == 0 else "x" if e == 1 else "x^%d" % e)
        for e, c in enumerate(coeffs, min_exponent)
        if c
    )


def _render(coeffs, min_exponent, order) -> str:
    return _sum_text(_monomials(coeffs, min_exponent)) + " + O(x^%d)" % order


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
    giant step come from one power walk, ``_powers``.  On the rational path
    the baby steps are brought over one denominator, so each block sum is
    an integer dot product, and Horner's rule keeps the running sum as one
    form: each step is the product step ``_times`` by the giant step plus
    the next block.  The constant coefficient is added last, as a scalar,
    so the values and the coefficient types are those of Horner's rule.
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
        pos = PowerSeries._from(outer._window(0), outer._den, 0, n)
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
    if inner._nums[0]:
        raise InadmissibleComposition("inner constant term must vanish")
    n = outer.order
    top = max((i for i, c in enumerate(outer._nums) if c), default=0)
    s = isqrt(top) + 1
    # c_0 is added last
    (terms, e), inner_form = _one_path(
        ([0, *outer._nums[1 : top + 1]], outer._den), inner._form
    )
    # the baby steps inner^0 .. inner^(s-1), then inner^s if top >= s
    powers = [([1], e and 1), *(p for p, _ in _powers(inner_form, min(s, top), n))]
    baby, den = [p for p, _ in powers[:s]], None
    if e is not None:
        d = lcm(*(p_den for _, p_den in powers[:s]))
        baby = [[c * (d // p_den) for c in p] for p, p_den in powers[:s]]
        den = d * e
    baby = [_nonzero_terms(p) for p in baby]
    blocks = []
    for start in range(0, top + 1, s):
        block = [0] * n
        for i, c in enumerate(terms[start : start + s]):
            if c:
                for m, y in baby[i]:
                    block[m] += c * y
        blocks.append(block)
    acc = blocks.pop(), den
    if blocks:
        giant = _nonzero_terms(powers[s][0]), powers[s][1]
    while blocks:
        # Horner's rule in the giant step
        acc = _add(_times(acc, giant, n), (blocks.pop(), den))
    result = PowerSeries._from(*acc, 0, n)
    c0 = outer._entry(0)
    return result + c0 if c0 else result
