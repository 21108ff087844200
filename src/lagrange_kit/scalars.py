"""Coefficient rings for the series engine.

Exact rationals are plain ``fractions.Fraction`` (already normalized: reduced,
positive denominator, structural equality).  The other supported coefficient
ring is ``MultiPoly``: a sparse polynomial with rational coefficients in a
fixed tuple of named indeterminates, held as int numerators per exponent tuple
over one positive int denominator, in lowest terms.  Everything here
interoperates with plain ints so that 0 and 1 work as universal ring constants.

``weighted_compositions`` lists the profiles, monomials and degree sequences
that ``lagrange``, the suites and ``trees`` sum over, each by its own route.
``_sum_text`` writes the text of a sum of terms for ``str`` of a polynomial
and of a series.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from math import comb, factorial, gcd, lcm
from operator import add, mul

from .errors import DivisionByNonUnit, ParseError


def format_rational(value) -> str:
    """Render an int or Fraction: integers plainly, otherwise "p/q"."""
    f = Fraction(value)
    if f.denominator == 1:
        return "%d" % f.numerator
    return "%d/%d" % (f.numerator, f.denominator)


# the most bits a rational literal's numerator or denominator may take
LITERAL_BITS = 64

# a decimal literal with an exponent, in Fraction's grammar: the digits
# before and after the point, and the exponent
_EXPONENT_LITERAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d*(?:_\d+)*)(?:\.(\d*(?:_\d+)*))?"
    r"[eE]([-+]?\d+(?:_\d+)*)\s*"
)


def parse_rational(text: str, position: int | None = None) -> Fraction:
    """Parse "p/q", "p", or a decimal literal into a Fraction.

    The exponent of a decimal literal is read from the text first, since
    ``Fraction`` builds 10^|e| for it (seconds for "1e-10000000"): a
    literal whose exponent moves the point more than LITERAL_BITS places,
    so that its numerator or denominator would exceed LITERAL_BITS bits,
    raises ParseError before any value is built."""
    where = "" if position is None else " at position %d" % position
    decimal = _EXPONENT_LITERAL.fullmatch(text)
    try:
        if decimal:
            whole, point, exponent = (g.replace("_", "") for g in decimal.groups(""))
            digits = (whole + point).rstrip("0")
            if not digits.strip("0"):
                return Fraction(0)
            if abs(int(exponent) + len(whole) - len(digits)) > LITERAL_BITS:
                raise ParseError(
                    "rational literal %r%s exceeds %d bits" % (text, where, LITERAL_BITS)
                )
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad rational literal %r%s" % (text, where)) from exc


def _power(base, k: int, one, times=mul):
    """base ** k for an integer k >= 0 by binary powering from the unit
    ``one`` with the product ``times``."""
    result = one
    while k:
        if k & 1:
            result = times(result, base)
        k >>= 1
        if k:
            base = times(base, base)
    return result


def _sum_text(terms) -> str:
    """The text of a sum of (coefficient, monomial text) pairs: each term
    reads c*m, m when c is 1, -m when c is -1, or c alone when m is empty,
    with a MultiPoly c of more than one term in parentheses before m; the
    terms are joined by " + ", or by " - " before a term whose text starts
    with a minus; "0" when there is no term."""
    text = ""
    for c, mono in terms:
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        elif c == -1:
            body = "-" + mono
        elif isinstance(c, MultiPoly) and len(c._nums) > 1:
            body = "(%s)*%s" % (c, mono)
        else:
            body = "%s*%s" % (c, mono)
        if not text:
            text = body
        elif body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text or "0"


def int_binomial(a: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) top index."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    # (-a+k-1 choose k) with alternating sign
    return (-1) ** k * comb(k - a - 1, k)


def multinomial(n: int, parts) -> int:
    """n! / (p_1! ... p_r!); the parts must sum to at most n, the remainder
    is treated as one more part."""
    parts = list(parts)
    rest = n - sum(parts)
    if rest < 0:
        return 0
    result = factorial(n)
    for p in parts:
        result //= factorial(p)
    return result // factorial(rest)


def weighted_compositions(weights, total: int):
    """Every tuple (n_1, ..., n_r) of nonnegative ints with sum w_i n_i =
    total, for positive int weights w_i, in lexicographic order.  The
    entries before the last run as an odometer and the last is solved, so
    no case is dead when the last weight is 1."""
    weights = tuple(weights)
    if not weights or total < 0:
        if total == 0:
            yield ()
        return
    *head, last = weights
    counts = [0] * len(head)
    left = total
    while True:
        q, r = divmod(left, last)
        if not r:
            yield (*counts, q)
        i = len(head) - 1
        while i >= 0 and head[i] > left:
            left += head[i] * counts[i]
            counts[i] = 0
            i -= 1
        if i < 0:
            return
        counts[i] += 1
        left -= head[i]


def scalar_inverse(c):
    """Multiplicative inverse of a scalar; raises DivisionByNonUnit."""
    if isinstance(c, MultiPoly):
        if not c.is_constant():
            raise DivisionByNonUnit("polynomial scalar %s is not invertible" % c)
        if not c:
            raise DivisionByNonUnit("zero scalar has no inverse")
        return MultiPoly.const(c.vars, 1) / c
    c = Fraction(c)
    if c == 0:
        raise DivisionByNonUnit("zero scalar has no inverse")
    return Fraction(c.denominator, c.numerator)


def scalar_div_int(c, n: int):
    """Exact division of a scalar by a nonzero integer."""
    if isinstance(c, int):
        return Fraction(c, n)
    return c / n


def poly_eval(coeffs, x):
    """Evaluate an ascending coefficient list at x (Horner)."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def _ratio(value):
    """(numerator, denominator > 0) of an int, a Fraction or what Fraction reads."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


def _poly(vars, nums: dict, den: int = 1) -> "MultiPoly":
    """The MultiPoly over ``vars`` of the nonzero integers ``nums`` over
    den > 0, with the content gcd(den, *nums) divided out."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    out = MultiPoly.__new__(MultiPoly)
    out.vars, out._nums, out._den = vars, nums, den
    return out


def _integer_product(a, b, max_degree=None) -> dict:
    """The integer sums per exponent tuple of the product of the integer
    term lists ``a`` and ``b``, zero sums included.  With ``max_degree``
    the terms of b are walked in order of total degree and each walk stops
    before the degree sum passes the bound, so no term above it is formed."""
    if max_degree is not None:
        b = sorted(b, key=lambda term: sum(term[0]))
        degrees = [sum(e) for e, _ in b]
    sums: dict[tuple, int] = {}
    for ea, ca in a:
        walk = b
        if max_degree is not None:
            room = max_degree - sum(ea)
            if room < 0:
                continue
            walk = islice(b, bisect_right(degrees, room))
        for eb, cb in walk:
            e = tuple(map(add, ea, eb))
            sums[e] = sums.get(e, 0) + ca * cb
    return sums


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients.

    The variable tuple is fixed; mixing polynomials over different
    variable tuples is an error, though constants compare (and hash) by
    value whatever their variables.  A polynomial holds one form, as a
    rational series does: nonzero int numerators per exponent tuple (one
    entry per variable, all >= 0) over one positive int denominator, with
    the content gcd(den, *nums) divided out, so that equal polynomials
    hold equal forms.  Every ring operation works on those integers and
    returns that form: a sum scales both operands to the lcm of their
    denominators, a product sums the integer products per exponent tuple
    (``_integer_product``) over the product of the denominators, and a
    scalar factor or divisor scales numerators and denominator.  Fractions
    are built only when ``terms``, ``coefficient``, ``constant_value`` or
    ``str`` read them.  The degree-bounded product ``mul_truncated`` walks
    the second operand's terms in order of total degree and stops each
    walk at the bound, so it never forms a term it would drop; ``**`` and
    ``pow_truncated`` power by the same products.
    """

    __slots__ = ("vars", "_nums", "_den")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean: dict[tuple, Fraction] = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                e = tuple(int(v) for v in exps)
                if len(e) != len(self.vars) or any(v < 0 for v in e):
                    raise ValueError("bad exponent vector %r" % (exps,))
                clean[e] = clean.get(e, 0) + c
        clean = {e: c for e, c in clean.items() if c}
        # over the lcm of the reduced coefficients' denominators the
        # content is 1
        self._den = lcm(*(c.denominator for c in clean.values()))
        self._nums = {e: c.numerator * (self._den // c.denominator)
                      for e, c in clean.items()}

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, vars, value):
        p, q = _ratio(value)
        vars = tuple(vars)
        return _poly(vars, {(0,) * len(vars): p} if p else {}, q)

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return _poly(vars, {tuple(e): 1})

    # -- reading ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The exponent tuples and Fraction coefficients of the nonzero
        terms, built from the form when read."""
        return {e: Fraction(c, self._den) for e, c in self._nums.items()}

    def _constant_numerator(self) -> int:
        return self._nums.get((0,) * len(self.vars), 0)

    def constant_value(self) -> Fraction:
        return Fraction(self._constant_numerator(), self._den)

    def coefficient(self, exps) -> Fraction:
        return Fraction(self._nums.get(tuple(int(v) for v in exps), 0), self._den)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._nums)

    def min_total_degree(self):
        """Smallest total degree among the terms; None for the zero poly."""
        return min(map(sum, self._nums), default=None)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self._nums), default=0)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError("polynomials over different variables")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.vars, other)
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = lcm(self._den, other._den)
        sa, sb = d // self._den, d // other._den
        nums = {e: c * sa for e, c in self._nums.items()}
        for e, c in other._nums.items():
            tot = nums.get(e, 0) + c * sb
            if tot:
                nums[e] = tot
            else:
                del nums[e]
        return _poly(self.vars, nums, d)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, {e: -c for e, c in self._nums.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._times(other, None)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return self._pow(k, None)

    def _scaled(self, p: int, q: int) -> "MultiPoly":
        """self * p / q for integers p and q, q nonzero."""
        if q < 0:
            p, q = -p, -q
        nums = {e: c * p for e, c in self._nums.items()} if p else {}
        return _poly(self.vars, nums, self._den * q)

    def _times(self, other: "MultiPoly", max_degree) -> "MultiPoly":
        """self * other, with no term above ``max_degree`` unless it is None."""
        sums = _integer_product(self._nums.items(), other._nums.items(), max_degree)
        return _poly(self.vars, {e: c for e, c in sums.items() if c},
                     self._den * other._den)

    def _pow(self, k: int, max_degree) -> "MultiPoly":
        """self ** k, with no term above ``max_degree`` unless it is None; a
        negative k powers the inverse."""
        if k < 0:
            return scalar_inverse(self)._pow(-k, max_degree)
        empty = max_degree is not None and max_degree < 0
        one = _poly(self.vars, {} if empty else {(0,) * len(self.vars): 1})
        return _power(self, k, one, lambda x, y: x._times(y, max_degree))

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            if not other.is_constant():
                raise DivisionByNonUnit("cannot divide by non-constant polynomial")
            p, q = other._constant_numerator(), other._den
        elif isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
        else:
            return NotImplemented
        if not p:
            raise DivisionByNonUnit("division by zero")
        return self._scaled(q, p)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * scalar_inverse(self)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            if self.vars != other.vars:
                # constants compare by value whatever their variables
                return other.is_constant() and self == other.constant_value()
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            # a constant's form is its value in lowest terms
            return self.is_constant() and (self._constant_numerator(), self._den) == (
                other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, so it hashes as that value
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.vars, self._den, frozenset(self._nums.items())))

    # -- structure -------------------------------------------------------

    def truncate_total(self, max_degree: int) -> "MultiPoly":
        nums = {e: c for e, c in self._nums.items() if sum(e) <= max_degree}
        return _poly(self.vars, nums, self._den)

    def mul_truncated(self, other, max_degree: int) -> "MultiPoly":
        """(self * other).truncate_total(max_degree), forming no term above
        max_degree: other's terms are walked in order of total degree, and
        each walk stops before the degree sum passes the bound."""
        poly = self._coerce(other)
        if poly is None:
            raise TypeError("cannot multiply a MultiPoly by %r" % (other,))
        return self._times(poly, max_degree)

    def pow_truncated(self, k: int, max_degree: int) -> "MultiPoly":
        """(self ** k).truncate_total(max_degree), by binary powering with
        the product of ``mul_truncated``; a negative k powers the inverse,
        as ``**`` does."""
        return self._pow(k, max_degree)

    def subs(self, mapping) -> "MultiPoly":
        """Substitute numbers for some variables; the variable tuple is kept.
        A value p/q turns c x^e into c p^e q^(t-e) over q^t, t the top e."""
        nums, den = self._nums, self._den
        for name, value in mapping.items():
            i = self.vars.index(name)
            p, q = _ratio(value)
            top = max((e[i] for e in nums), default=0)
            sums: dict[tuple, int] = {}
            for e, c in nums.items():
                key = e[:i] + (0,) + e[i + 1:]
                sums[key] = sums.get(key, 0) + c * p ** e[i] * q ** (top - e[i])
            nums = {e: c for e, c in sums.items() if c}
            den *= q ** top
        return _poly(self.vars, nums, den)

    # -- presentation ------------------------------------------------------

    def __str__(self):
        return _sum_text(
            (c, "*".join(name if p == 1 else "%s^%d" % (name, p)
                         for name, p in zip(self.vars, e) if p))
            for e, c in sorted(self.terms.items())
        )

    def __repr__(self):
        return "MultiPoly(%r, %s)" % (list(self.vars), str(self))


class PolyRing:
    """Factory for MultiPoly values over one fixed variable tuple."""

    def __init__(self, *names: str):
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = tuple(names)

    def var(self, name: str) -> MultiPoly:
        return MultiPoly.variable(self.names, name)

    def gens(self):
        return tuple(self.var(n) for n in self.names)

    def zero(self) -> MultiPoly:
        return MultiPoly(self.names)

    def one(self) -> MultiPoly:
        return MultiPoly.const(self.names, 1)
