"""Coefficient rings for the series engine.

Exact rationals are plain ``fractions.Fraction`` (already normalized: reduced,
positive denominator, structural equality).  The other supported coefficient
ring is ``MultiPoly``: a sparse polynomial in a fixed tuple of named
indeterminates with Fraction coefficients.  Everything here interoperates with
plain ints so that 0 and 1 work as universal ring constants.
"""

from __future__ import annotations

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


def parse_rational(text: str, position: int | None = None) -> Fraction:
    """Parse "p/q", "p", or a decimal literal into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        where = "" if position is None else " at position %d" % position
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


def scalar_inverse(c):
    """Multiplicative inverse of a scalar; raises DivisionByNonUnit."""
    if isinstance(c, MultiPoly):
        if not c.is_constant():
            raise DivisionByNonUnit("polynomial scalar %s is not invertible" % c)
        return c._like_const(scalar_inverse(c.constant_value()))
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


def _integer_terms(terms):
    """The (exponents, integer) pairs of a term dict scaled by the lcm d of
    its denominators, and d."""
    d = lcm(*(c.denominator for c in terms.values()))
    return [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()], d


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
    """Sparse multivariate polynomial over Fraction.

    Terms map exponent tuples (one entry per variable, all >= 0) to nonzero
    Fraction coefficients.  The variable tuple is fixed; mixing polynomials
    over different variable tuples is an error.  A product scales each
    operand's coefficients to integers by the lcm of their denominators,
    sums the integer products per exponent tuple (``_integer_product``),
    and builds one Fraction per surviving term.  The degree-bounded product
    ``mul_truncated`` does the same but walks the second operand's terms in
    order of total degree and stops each walk at the bound, so it never
    forms a term it would drop.  ``**`` and ``pow_truncated`` scale the
    base once and power integer term lists over one denominator with the
    same product, dividing out the content gcd(den, *coefficients) after
    each step, and build the Fractions once.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        width = len(self.vars)
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                e = tuple(int(v) for v in exps)
                if len(e) != width or any(v < 0 for v in e):
                    raise ValueError("bad exponent vector %r" % (exps,))
                prev = clean.get(e)
                tot = c if prev is None else prev + c
                if tot:
                    clean[e] = tot
                elif prev is not None:
                    del clean[e]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, vars, value):
        value = Fraction(value)
        vars = tuple(vars)
        if not value:
            return cls(vars)
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    def _like_const(self, value):
        return MultiPoly.const(self.vars, value)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def min_total_degree(self):
        """Smallest total degree among the terms; None for the zero poly."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

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
        terms = dict(self.terms)
        for e, c in other.terms.items():
            tot = terms.get(e, 0) + c
            if tot:
                terms[e] = tot
            elif e in terms:
                del terms[e]
        out = MultiPoly(self.vars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly(self.vars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._times(other, None)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return self._pow(k, None)

    def _times(self, other: "MultiPoly", max_degree) -> "MultiPoly":
        """self * other, with no term above ``max_degree`` unless it is None."""
        a, da = _integer_terms(self.terms)
        b, db = _integer_terms(other.terms)
        return self._over(_integer_product(a, b, max_degree).items(), da * db)

    def _pow(self, k: int, max_degree) -> "MultiPoly":
        """self ** k, with no term above ``max_degree`` unless it is None; a
        negative k powers the inverse."""
        if k < 0:
            return scalar_inverse(self)._pow(-k, max_degree)

        def times(x, y):
            sums = _integer_product(x[0], y[0], max_degree)
            terms = [(e, c) for e, c in sums.items() if c]
            den = x[1] * y[1]
            g = gcd(den, *(c for _, c in terms))
            return [(e, c // g) for e, c in terms], den // g

        unit = (0,) * len(self.vars)
        one = [] if max_degree is not None and max_degree < 0 else [(unit, 1)]
        terms, den = _power(_integer_terms(self.terms), k, (one, 1), times)
        return self._over(terms, den)

    def _over(self, terms, den: int) -> "MultiPoly":
        """The MultiPoly of the (exponents, integer) pairs ``terms`` over
        ``den``, zero integers dropped."""
        out = MultiPoly(self.vars)
        out.terms = {e: Fraction(c, den) for e, c in terms if c}
        return out

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            if not other.is_constant():
                raise DivisionByNonUnit("cannot divide by non-constant polynomial")
            other = other.constant_value()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByNonUnit("division by zero")
            inv = Fraction(1) / Fraction(other)
            out = MultiPoly(self.vars)
            out.terms = {e: c * inv for e, c in self.terms.items()}
            return out
        return NotImplemented

    def __rtruediv__(self, other):
        return self._coerce(other) * scalar_inverse(self)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- structure -------------------------------------------------------

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(int(v) for v in exps), Fraction(0))

    def truncate_total(self, max_degree: int) -> "MultiPoly":
        out = MultiPoly(self.vars)
        out.terms = {e: c for e, c in self.terms.items() if sum(e) <= max_degree}
        return out

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
        """Substitute numbers for some variables; the variable tuple is kept."""
        idx = {self.vars.index(name): Fraction(v) for name, v in mapping.items()}
        terms: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            val = c
            new_e = list(e)
            for i, v in idx.items():
                val *= v ** e[i]
                new_e[i] = 0
            if not val:
                continue
            key = tuple(new_e)
            tot = terms.get(key, 0) + val
            if tot:
                terms[key] = tot
            elif key in terms:
                del terms[key]
        out = MultiPoly(self.vars)
        out.terms = terms
        return out

    def evaluate(self, mapping) -> Fraction:
        """Substitute every variable and return the resulting Fraction."""
        res = self.subs(mapping)
        if not res.is_constant():
            missing = [v for v in self.vars if res.degree_in(v) > 0]
            raise ValueError("unassigned variables: %s" % ", ".join(missing))
        return res.constant_value()

    # -- presentation ------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            factors = []
            for name, p in zip(self.vars, e):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append("%s^%d" % (name, p))
            mono = "*".join(factors)
            if not mono:
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = "-" + mono
            else:
                body = "%s*%s" % (c, mono)
            parts.append(body)
        text = parts[0]
        for body in parts[1:]:
            if body.startswith("-"):
                text += " - " + body[1:]
            else:
                text += " + " + body
        return text

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

    def const(self, value) -> MultiPoly:
        return MultiPoly.const(self.names, value)

    def zero(self) -> MultiPoly:
        return MultiPoly(self.names)

    def one(self) -> MultiPoly:
        return MultiPoly.const(self.names, 1)
