"""Exact coefficient fields: the rationals and prime fields GF(p).

Prime-field elements are plain ints kept reduced to [0, p); rational
coefficients are `fractions.Fraction` (always in lowest terms with a
positive denominator, which the Fraction type guarantees).

The division kernel and polynomial sums and products work on integer
coefficients instead (`integer_terms`, `divisor_terms`).  Over QQ a set
of coefficients becomes integers over one common denominator, so a whole
reduction, sum or product runs on ints, with no Fraction normalised per
operation, and each result coefficient becomes a Fraction once, when it
leaves.  Over GF(p) the integers are the residues themselves, taken as
they are; sums of products may grow past p and are reduced mod p only
when a coefficient leaves, so a coefficient has cancelled exactly when it
is 0 mod p.  The two kernels make that last step inline, `% p` or
`Fraction(n, den)`, rather than by a call per term.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

DEFAULT_PRIME = 32003


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """An exact coefficient field: characteristic 0 means the rationals.

    A prime characteristic must be below 2^31, so that the trial division
    of `_is_prime` stays under about 23k divisions.  `zero` and `one` are
    the field's elements 0 and 1.  Instances are treated as immutable
    values: equal and hashed by characteristic."""

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int = DEFAULT_PRIME):
        p = characteristic
        if p >= 1 << 31:
            raise ValueError(f"characteristic must be below 2^31, got {p}")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")
        self.characteristic = p
        self.zero = 0 if p else Fraction(0)
        self.one = 1 if p else Fraction(1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.characteristic,))

    def __repr__(self):
        return f"FieldSpec(characteristic={self.characteristic!r})"

    # -- element constructors ------------------------------------------------

    def element(self, value) -> object:
        """The field element of an int or a Fraction: over GF(p) its
        residue, a ZeroDivisionError when p divides the denominator."""
        if self.characteristic:
            p = self.characteristic
            if isinstance(value, Fraction):
                den = value.denominator % p
                if den == 0:
                    raise ZeroDivisionError(f"denominator divisible by {p}")
                return value.numerator * pow(den, -1, p) % p
            return int(value) % p
        return Fraction(value)

    # -- arithmetic ----------------------------------------------------------
    # (these test `characteristic` directly: they run once per coefficient
    # operation, and the property adds a call to each)

    def mul(self, a, b):
        if self.characteristic:
            return (a * b) % self.characteristic
        return a * b

    def neg(self, a):
        if self.characteristic:
            return (-a) % self.characteristic
        return -a

    def inv(self, a):
        if self.characteristic:
            return pow(a, -1, self.characteristic)
        return 1 / a

    # -- integer coefficients ------------------------------------------------
    # (on (key, coefficient) pairs, whatever the keys are: monomials or
    # module terms)

    def integer_terms(self, terms) -> tuple:
        """(int_terms, den): the pairs with integer coefficients n and a
        den > 0 such that each coefficient is n / den.  Over QQ den is the
        least common denominator; over GF(p) residues are integers, so the
        pairs come back as they are, with den 1."""
        if self.characteristic:
            return terms, 1
        dens = [c.denominator for _, c in terms]
        den = lcm(*dens)
        return [(t, c.numerator * (den // d)) for (t, c), d in zip(terms, dens)], den

    def divisor_terms(self, terms) -> tuple:
        """Nonzero pairs scaled to the integer unit multiple that division
        works with: over QQ coprime integers with the first positive, over
        GF(p) residues with the first equal to 1."""
        p = self.characteristic
        if p:
            if terms[0][1] == 1:
                return terms
            inv = pow(terms[0][1], -1, p)
            return tuple((t, c * inv % p) for t, c in terms)
        ints, _ = self.integer_terms(terms)
        g = gcd(*[n for _, n in ints])
        if ints[0][1] < 0:
            g = -g
        return tuple((t, n // g) for t, n in ints)

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


RATIONALS = FieldSpec(0)
GF32003 = FieldSpec(DEFAULT_PRIME)
