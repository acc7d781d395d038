"""Polynomial rings: packed monomials, monomial orders, and canonical sparse
polynomials.

A monomial is one int.  The order key of an exponent vector is a flat tuple
of linear forms in the exponents (`MonomialOrder.digits`), and every key of
one ring has the same length L: grevlex packs (deg, -x_n, ..., -x_1), lex
(x_1, ..., x_n), and block(k) the grevlex key of the first k variables
followed by the grevlex key of the rest.  The int holds those L digits,
most significant first, as balanced base-2^16 digits.  No digit of a key
passes MAX_DEGREE = 2^15 - 1 in absolute value (a total degree at most
MAX_DEGREE keeps them all below it), and then:

- the encoding is linear, so integer `+` is the monomial product, and the
  quotient of t by a divisor m is t - m;
- integer `<` is the monomial order (balanced digit strings compare as
  their leading differing digit), for lex, grevlex and block(k) alike, so
  sorting, heaps and merges need no key function; 1 packs as 0, the least
  monomial, so every monomial is a non-negative int below 2^(16L - 1);
- m divides t exactly when every exponent digit of t - m has the sign of
  an exponent; after one offset per digit that is one mask
  (`PolyRing.divides`).

A module term, the monomial m at position i of a free module, is the int
m - i * 2^K with K = 16L (`PolyRing.position_shift`): integer order is
then position over term, the smaller position winning, a position-0 term
is the monomial itself, m is the term & (2^K - 1), and -i is term >> K.

`PolyRing.exponents`, `degree` and `monomial` convert between packed
monomials and exponent tuples.  `monomial`, `**` and parsing raise
ValueError past total degree MAX_DEGREE; a monomial made inside (a
product, an lcm, a division step) raises it where it first appears if a
digit of its key passes MAX_DEGREE, which one mask shows (`bounds`).

A Polynomial stores its terms as a tuple of (monomial, coefficient)
pairs, strictly descending, with no zero coefficients, so equal
polynomials compare equal structurally.  Addition, subtraction and
multiplication are one arithmetic path, `sum_of_products`: p + q is
1·p + 1·q and p - q is 1·p + (-1)·q.  It sums integer products
(`FieldSpec.integer_terms`, as the division kernel uses) in a dict over
one common denominator, and each sum enters the field once, in one sort:
no `from_dict`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .field import FieldSpec

_BITS = 16                      # bits per digit of a packed monomial
_FIELD = (1 << _BITS) - 1
_HALF = 1 << (_BITS - 1)
MAX_DEGREE = _HALF - 1          # the largest digit of a key in absolute value
PAST_BOUND = f"a digit of a monomial's key exceeds the bound {MAX_DEGREE}"


class RingMismatchError(ValueError):
    pass


def _check_degree(degree: int):
    if degree > MAX_DEGREE:
        raise ValueError(f"total degree {degree} exceeds the bound {MAX_DEGREE}")


def _grevlex_digits(lo: int, hi: int) -> list:
    """(deg, -x_hi-1, ..., -x_lo) of the variables lo..hi-1."""
    return [(1, lo, hi)] + [(-1, i, i + 1) for i in reversed(range(lo, hi))]


class MonomialOrder:
    """lex, grevlex, or block-elimination(k) eliminating the first k variables.

    Orders are equal and hashed by (kind, block); `digits(n)` is the order
    key in n variables."""

    __slots__ = ("kind", "block")

    def __init__(self, kind: str = "grevlex", block: int = 0):
        if kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown monomial order {kind!r}")
        if kind == "block" and block < 1:
            raise ValueError("block-elimination order needs block >= 1")
        self.kind, self.block = kind, block

    def digits(self, nvars: int) -> list:
        """The order key as linear forms in the exponents, most significant
        first: (sign, lo, hi) is sign times the sum of the exponents of
        the variables lo..hi-1.  A larger key is a larger monomial."""
        if self.kind == "lex":
            return [(1, i, i + 1) for i in range(nvars)]
        if self.kind == "grevlex":
            return _grevlex_digits(0, nvars)
        k = min(self.block, nvars)
        return _grevlex_digits(0, k) + _grevlex_digits(k, nvars)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.block) == (other.kind, other.block)

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        return f"MonomialOrder(kind={self.kind!r}, block={self.block!r})"

    def __str__(self):
        if self.kind == "block":
            return f"block({self.block})"
        return self.kind


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

class PolyRing:
    """A polynomial ring over `field` in `variables` under `order`; rings
    are equal and hashed by (field, variables, order).  `zero`, `one` and
    `gens` (the variables) are built once, and so is the packing of the
    order's key: `position_shift` is K, `divisibility` the (offset, mask,
    want) of the test in `divides`, and `bounds` that of the range check:
    (t + offset) & mask == want when the term t's monomial is in range."""

    __slots__ = ("field", "variables", "order", "zero", "one", "gens",
                 "position_shift", "divisibility", "bounds", "_places", "_halves",
                 "_degree_places")

    def __init__(self, field: FieldSpec, variables, order: MonomialOrder = None):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        self.order = MonomialOrder() if order is None else order
        n = len(self.variables)
        digits = self.order.digits(n)
        size = len(digits)
        # digit j sits f bits up; a variable's weight is its packed exponent
        # vector, and its place the least significant digit that holds it
        weights, places, degree_places = [0] * n, [0] * n, []
        offset = mask = want = 0
        for j, (sign, lo, hi) in enumerate(digits):
            f = _BITS * (size - 1 - j)
            # the positive digits sum the exponents over disjoint variable
            # ranges that cover every variable: their sum is the degree
            if sign > 0:
                degree_places.append(f)
            for i in range(lo, hi):
                weights[i] += sign << f
                places[i] = (f, sign)
            # after the offset, the top bit of the digit of t - m is clear
            # exactly when a negated exponent is <= 0 and set exactly when
            # an exponent (or degree) is >= 0
            offset += (_HALF - (sign < 0)) << f
            mask |= _HALF << f
            if sign > 0:
                want |= _HALF << f
        self.position_shift = _BITS * size
        # bits above the monomial must be clear: a term at another position
        # never divides
        self.divisibility = (offset, mask | -(1 << self.position_shift), want)
        self.bounds = (offset, mask, want)
        self._places = tuple((f, sign, w) for (f, sign), w in zip(places, weights))
        self._halves = sum(_HALF << (_BITS * f) for f in range(size))
        self._degree_places = tuple(degree_places)
        self.zero = Polynomial(self, ())
        self.one = self.constant(field.one)
        self.gens = tuple(self.var(v) for v in self.variables)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.field, self.variables, self.order)
                == (other.field, other.variables, other.order))

    def __ne__(self, other):
        # the default __ne__ calls __eq__ through a slower generic path
        if other is self:
            return False
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return (f"PolyRing(field={self.field!r}, variables={self.variables!r}, "
                f"order={self.order!r})")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    # -- packed monomials ----------------------------------------------------

    def monomial(self, expo) -> int:
        """The packed monomial of an exponent vector; ValueError past
        MAX_DEGREE."""
        expo = tuple(expo)
        if len(expo) != len(self.variables) or any(e < 0 for e in expo):
            raise ValueError(f"bad exponent vector {expo!r} for {self}")
        _check_degree(sum(expo))
        return sum([e * w for e, (_, _, w) in zip(expo, self._places)])

    def exponents(self, m: int) -> tuple:
        """The exponent vector of the packed monomial m; of a quotient t - m
        of two monomials, the difference of their exponent vectors."""
        u = m + self._halves        # every digit + 2^15, a plain 16-bit field
        return tuple([sign * (((u >> f) & _FIELD) - _HALF) for f, sign, _ in self._places])

    def degree(self, m: int) -> int:
        """The total degree of the packed monomial m, or of a quotient t - m
        of two, the sum of the order's positive digits: one for grevlex,
        two for block(k), one per variable for lex."""
        u = m + self._halves
        total = 0
        for f in self._degree_places:
            total += ((u >> f) & _FIELD) - _HALF
        return total

    def divides(self, m: int, t: int) -> bool:
        """True when the monomial m divides the monomial t, or the module
        term m the module term t (same position); t - m is the quotient."""
        offset, mask, want = self.divisibility
        return (t - m + offset) & mask == want

    def lcm(self, m1: int, m2: int) -> int:
        """The lcm of two packed monomials: m1 times the positive part of
        m2 / m1, whose exponents `exponents(m2 - m1)` would give."""
        u = m2 - m1 + self._halves
        for f, sign, w in self._places:
            e = sign * (((u >> f) & _FIELD) - _HALF)
            if e > 0:
                m1 += e * w
        offset, mask, want = self.bounds
        if (m1 + offset) & mask != want:
            raise ValueError(PAST_BOUND)
        return m1

    # -- polynomial constructors --------------------------------------------

    def constant(self, c) -> "Polynomial":
        c = self.field.element(c)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, ((0, c),))

    def var(self, name: str) -> "Polynomial":
        w = self._places[self.variables.index(name)][2]
        return Polynomial(self, ((w, self.field.one),))

    def from_dict(self, d: dict) -> "Polynomial":
        """The polynomial with coefficient d[m] at each packed monomial m."""
        zero = self.field.zero
        return Polynomial(self, tuple(
            (m, d[m]) for m in sorted(d, reverse=True) if d[m] != zero
        ))

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).parse()

    def sum_of_products(self, pairs) -> "Polynomial":
        """The sum of f * g over `pairs` of canonical term tuples (f, g) of
        polynomials of this ring, by the module function `sum_of_products`."""
        return Polynomial(self, sum_of_products(self, pairs))

    def __str__(self):
        return f"{self.field}[{', '.join(self.variables)}] ({self.order})"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Canonical sparse polynomial: terms strictly descending, no zeros.
    Nothing assigns `ring` or `terms` after construction, so the hash and
    the string are each computed once, on first use."""

    __slots__ = ("ring", "terms", "_hash", "_str")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._hash = self._str = None

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(map(self.ring.degree, [m for m, _ in self.terms]))

    def is_homogeneous(self) -> bool:
        degree = self.ring.degree
        return len({degree(m) for m, _ in self.terms}) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        one = self.ring.one
        return self.ring.sum_of_products([(one.terms, self.terms), (one.terms, other.terms)])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        one = self.ring.one
        return self.ring.sum_of_products([(one.terms, self.terms), ((-one).terms, other.terms)])

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, tuple((m, F.neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return self.ring.sum_of_products([(self.terms, other.terms)])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if n:
            _check_degree(n * self.total_degree())
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c) -> "Polynomial":
        """Multiply by a field element."""
        F = self.ring.field
        c = F.element(c)
        if c == F.zero:
            return self.ring.zero
        return Polynomial(self.ring, tuple((m, F.mul(cc, c)) for m, cc in self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lc()))

    def mul_term(self, mono: int, coeff) -> "Polynomial":
        """Multiply by the single term coeff * mono (a packed monomial and
        a field element)."""
        return self.ring.sum_of_products([(((mono, coeff),), self.terms)])

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.variables, self.ring.field, self.terms))
        return self._hash

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        if self._str is None:
            self._str = self._format()
        return self._str

    def _format(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        F = ring.field
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(ring.variables, ring.exponents(m)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            neg = False
            if F.characteristic == 0 and c < 0:
                neg, c = True, -c
            coeff_str = str(c)
            if factors and c == F.one:
                body = "*".join(factors)
            elif factors:
                body = "*".join([coeff_str] + factors)
            else:
                body = coeff_str
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# integer coefficients
# ---------------------------------------------------------------------------

def sum_of_products(ring: PolyRing, pairs) -> tuple:
    """The canonical terms of the sum of f * g over `pairs` of canonical
    term tuples (f, g) of `ring`: f holds monomials, g monomials or module
    terms (a term of g times a monomial of f is their sum).  The products
    are summed as integers over one common denominator, and each sum
    enters the field once (over GF(p), reduced mod p there)."""
    field, (offset, mask, want) = ring.field, ring.bounds
    parts = []
    for f, g in pairs:
        a, a_den = field.integer_terms(f)
        b, b_den = field.integer_terms(g)
        parts.append((a, b, a_den * b_den))
    den = lcm(*[d for *_, d in parts])
    acc = {}
    get = acc.get
    for a, b, d in parts:
        scale = den // d
        for m, n in a:
            n *= scale
            for t, c in b:
                t += m
                acc[t] = get(t, 0) + n * c
    ratio = field.ratio
    out = []
    for t in sorted(acc, reverse=True):
        if (t + offset) & mask != want:
            raise ValueError(PAST_BOUND)
        c = ratio(acc[t], den)
        if c:
            out.append((t, c))
    return tuple(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# a variable name: what the parser reads as one `ident` token
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<ident>" + IDENT_RE.pattern + r")|(?P<op>[-+*^()]))"
)


class _Parser:
    """Recursive-descent parser for `3*x^2*y - 1/2*z + 5` syntax."""

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                break
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        try:
            p = self.expr()
        except RecursionError:
            raise ParseError("expression nested too deeply", 0) from None
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        """A signed sum of terms, summed by one `sum_of_products` over the
        terms times 1 or -1; a lone unsigned term is returned as it is."""
        one = self.ring.one
        signs = {"+": one.terms, "-": (-one).terms}
        pairs, sign = [], "+"
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = val
        while True:
            p = self.term()
            pairs.append((signs[sign], p.terms))
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                break
            self.next()
            sign = val
        if len(pairs) == 1 and sign == "+":
            return p
        return self.ring.sum_of_products(pairs)

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                q = self.factor()
                _check_degree(p.total_degree() + q.total_degree())
                p = p * q
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num" or "/" in val:
                raise ParseError("exponent must be a non-negative integer", pos)
            p = p ** int(val)
        return p

    def atom(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "num":
            # a zero denominator, or over GF(p) one divisible by p
            try:
                return self.ring.constant(Fraction(val))
            except ZeroDivisionError:
                raise ParseError(f"the denominator of {val} is zero in {self.ring.field}",
                                 pos) from None
        if kind == "ident":
            if val not in self.ring.variables:
                raise ParseError(f"unknown variable {val!r}", pos)
            return self.ring.var(val)
        if kind == "op" and val == "(":
            p = self.expr()
            kind, val, pos = self.next()
            if val != ")":
                raise ParseError("expected ')'", pos)
            return p
        if kind == "op" and val == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {val!r}", pos)
