"""Exact coefficient fields: the rationals and prime fields GF(p).

Prime-field elements are plain ints kept reduced to [0, p); rational
coefficients are `fractions.Fraction` (always in lowest terms with a
positive denominator, which the Fraction type guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class FieldSpec:
    """An exact coefficient field: characteristic 0 means the rationals."""

    characteristic: int = DEFAULT_PRIME

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic != 0

    # -- element constructors ------------------------------------------------

    @property
    def zero(self):
        return 0 if self.is_prime_field else Fraction(0)

    @property
    def one(self):
        return 1 if self.is_prime_field else Fraction(1)

    def element(self, value) -> object:
        """Coerce an int, Fraction, or `a/b` string into a field element."""
        if isinstance(value, str):
            value = Fraction(value)
        if self.is_prime_field:
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

    def add(self, a, b):
        if self.characteristic:
            return (a + b) % self.characteristic
        return a + b

    def sub(self, a, b):
        if self.characteristic:
            return (a - b) % self.characteristic
        return a - b

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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- formatting ----------------------------------------------------------

    def format(self, a) -> str:
        return str(a)

    def __str__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


RATIONALS = FieldSpec(0)
GF32003 = FieldSpec(DEFAULT_PRIME)
