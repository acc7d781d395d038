"""Polynomial rings: monomials, monomial orders, and canonical sparse polynomials.

Monomials are plain exponent tuples.  A Polynomial stores its terms as a
tuple of (monomial, coefficient) pairs, strictly descending in the ring's
monomial order with no zero coefficients, so equal polynomials compare
equal structurally.

Kernel invariants:

- Order keys are flat tuples, and every key of one ring has the same
  length, so keys compare as plain tuples (a block key is the grevlex key
  of the first block followed by the grevlex key of the second).  Each
  MonomialOrder binds its key function once, at construction.
- Addition and subtraction merge two canonical term tuples in one pass
  and emit a canonical tuple; they never build a dict or sort.
- Multiplication sums integer products (`FieldSpec.integer_terms`, as
  the division kernel uses) in a dict over one common denominator, and
  each sum enters the field once, in one sort: no `from_dict`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import lcm
from operator import add, le, neg, sub

from .field import FieldSpec

Monomial = tuple  # exponent vectors, one entry per ring variable

LT, EQ, GT = -1, 0, 1


class RingMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# monomial helpers
# ---------------------------------------------------------------------------

def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(add, m1, m2))


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    """True when m1 divides m2."""
    return all(map(le, m1, m2))


def mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    """m1 / m2; caller must ensure divisibility."""
    return tuple(map(sub, m1, m2))


def mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))


def _grevlex_key(m: Monomial):
    return (sum(m), *map(neg, reversed(m)))


def _grevlex_neg_key(m: Monomial):
    return (-sum(m), *reversed(m))


def _lex_key(m: Monomial):
    return m


def _lex_neg_key(m: Monomial):
    return tuple(map(neg, m))


def _block_key(k: int, m: Monomial):
    # the first part always has k + 1 entries, so the flat tuple compares
    # exactly as the pair (grevlex key of m[:k], grevlex key of m[k:])
    return _grevlex_key(m[:k]) + _grevlex_key(m[k:])


def _block_neg_key(k: int, m: Monomial):
    return _grevlex_neg_key(m[:k]) + _grevlex_neg_key(m[k:])


class MonomialOrder:
    """lex, grevlex, or block-elimination(k) eliminating the first k variables.

    `key(m)` is the sort key: a larger key means a larger monomial.
    `neg_key(m)` is key(m) with every entry negated, so the smallest
    neg_key belongs to the largest monomial (for min-heaps).  Orders are
    equal and hashed by (kind, block).
    """

    __slots__ = ("kind", "block", "key", "neg_key")

    def __init__(self, kind: str = "grevlex", block: int = 0):
        if kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown monomial order {kind!r}")
        if kind == "block" and block < 1:
            raise ValueError("block-elimination order needs block >= 1")
        if kind == "grevlex":
            key, neg_key = _grevlex_key, _grevlex_neg_key
        elif kind == "lex":
            key, neg_key = _lex_key, _lex_neg_key
        else:
            key = partial(_block_key, block)
            neg_key = partial(_block_neg_key, block)
        self.kind, self.block, self.key, self.neg_key = kind, block, key, neg_key

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


def monomial_cmp(order: MonomialOrder, m1: Monomial, m2: Monomial) -> int:
    if len(m1) != len(m2):
        raise ValueError("monomials have different variable counts")
    k1, k2 = order.key(m1), order.key(m2)
    if k1 < k2:
        return LT
    if k1 > k2:
        return GT
    return EQ


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

class PolyRing:
    """A polynomial ring over `field` in `variables` under `order`; rings
    are equal and hashed by (field, variables, order).  `key` is the
    order's key; `zero`, `one` and `gens` (the variables) are built once."""

    __slots__ = ("field", "variables", "order", "key", "zero", "one", "gens")

    def __init__(self, field: FieldSpec, variables, order: MonomialOrder = None):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        self.order = MonomialOrder() if order is None else order
        self.key = self.order.key
        self.zero = Polynomial(self, ())
        self.one = self.constant(field.one)
        self.gens = tuple(self.var(v) for v in self.variables)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.field, self.variables, self.order)
                == (other.field, other.variables, other.order))

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return (f"PolyRing(field={self.field!r}, variables={self.variables!r}, "
                f"order={self.order!r})")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    # -- polynomial constructors --------------------------------------------

    def constant(self, c) -> "Polynomial":
        c = self.field.element(c)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((expo, self.field.one),))

    def monomial(self, expo: Monomial, coeff=None) -> "Polynomial":
        coeff = self.field.one if coeff is None else self.field.element(coeff)
        if coeff == self.field.zero:
            return self.zero
        return Polynomial(self, ((tuple(expo), coeff),))

    def from_dict(self, d: dict) -> "Polynomial":
        zero = self.field.zero
        return Polynomial(self, tuple(
            (m, d[m]) for m in sorted(d, key=self.key, reverse=True) if d[m] != zero
        ))

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).parse()

    def sum_of_products(self, pairs) -> "Polynomial":
        """The sum of f * g over `pairs` of canonical term tuples (f, g) of
        polynomials of this ring, by the module function `sum_of_products`."""
        return Polynomial(self, sum_of_products(
            self.field, self.order.neg_key, mono_mul, pairs))

    def __str__(self):
        return f"{self.field}[{', '.join(self.variables)}] ({self.order})"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Canonical sparse polynomial: terms strictly descending, no zeros."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lm(self) -> Monomial:
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
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m, _ in self.terms}
        return len(degs) == 1

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_ring(other)
        return Polynomial(self.ring, _merge(self.ring, self.terms, other.terms, False))

    def __sub__(self, other):
        other = self._coerce(other)
        self._check_ring(other)
        return Polynomial(self.ring, _merge(self.ring, self.terms, other.terms, True))

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, tuple((m, F.neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_ring(other)
        return self.ring.sum_of_products([(self.terms, other.terms)])

    def __rmul__(self, other):
        return self * other

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return -(self - other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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

    def mul_term(self, mono: Monomial, coeff) -> "Polynomial":
        """Multiply by a single term; preserves descending term order."""
        F = self.ring.field
        return Polynomial(
            self.ring,
            tuple((mono_mul(m, mono), F.mul(c, coeff)) for m, c in self.terms),
        )

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.variables, self.ring.field, self.terms))
        return self._hash

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        F = self.ring.field
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            neg = False
            if F.characteristic == 0 and c < 0:
                neg, c = True, -c
            coeff_str = F.format(c)
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


def _merge(ring: PolyRing, a: tuple, b: tuple, subtract: bool) -> tuple:
    """Terms of a + b, or of a - b when `subtract`, for canonical term
    tuples a and b: one pass over both, each monomial keyed once."""
    F = ring.field
    if not b:
        return a
    if not a:
        return tuple((m, F.neg(c)) for m, c in b) if subtract else b
    key, zero = ring.key, F.zero
    combine = F.sub if subtract else F.add
    out = []
    append = out.append
    na, nb = len(a), len(b)
    i = j = 0
    ma, ca = a[0]
    mb, cb = b[0]
    ka, kb = key(ma), key(mb)
    while True:
        if ka > kb:
            append((ma, ca))
            i += 1
            if i == na:
                break
            ma, ca = a[i]
            ka = key(ma)
        elif ka < kb:
            append((mb, F.neg(cb)) if subtract else (mb, cb))
            j += 1
            if j == nb:
                break
            mb, cb = b[j]
            kb = key(mb)
        else:
            s = combine(ca, cb)
            if s != zero:
                append((ma, s))
            i += 1
            j += 1
            if i == na or j == nb:
                break
            ma, ca = a[i]
            mb, cb = b[j]
            ka, kb = key(ma), key(mb)
    out.extend(a[i:])
    if subtract:
        out.extend((m, F.neg(c)) for m, c in b[j:])
    else:
        out.extend(b[j:])
    return tuple(out)


# ---------------------------------------------------------------------------
# integer coefficients
# ---------------------------------------------------------------------------

def sum_of_products(field: FieldSpec, neg_key, mul, pairs) -> tuple:
    """The canonical terms of the sum of f * g over `pairs` of canonical
    term tuples (f, g): `mul(t, m)` multiplies a term t of g by a monomial
    m of f, and `neg_key` is the negated order key of such terms.  The
    products are summed as integers over one common denominator, and each
    sum enters the field once (over GF(p), reduced mod p there)."""
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
                t = mul(t, m)
                acc[t] = get(t, 0) + n * c
    ratio = field.ratio
    out = []
    for t in sorted(acc, key=neg_key):
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
        p = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
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
            return self.ring.constant(Fraction(val))
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
