"""Exact coefficient fields and the package's error types."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class AlgebraError(Exception):
    """Base error for this package."""


class RingMismatchError(AlgebraError):
    """Operands live in different rings."""


class ParseError(AlgebraError):
    """Polynomial or recipe text failed to parse.  ``message`` is the text
    without the location, which ``line`` and ``col`` carry."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.col = col


class CappedComputationError(AlgebraError):
    """A Groebner run needed a pair beyond its degree cap."""

    def __init__(self, message, cap=None, degree=None):
        super().__init__(message)
        self.cap = cap
        self.degree = degree


class GenericityError(AlgebraError):
    """Seeded random choices failed to reach a generic configuration."""


class LinkageError(AlgebraError):
    """A liaison step was inconsistent (bad regular sequence or Hilbert function)."""


class GinUncertifiedError(AlgebraError):
    """Random coordinate changes did not agree on a Borel-fixed initial ideal;
    carries the distinct leading-term ideals seen, as tuples of monomial
    keys."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for word-sized integers."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for a word-size prime p, or the rationals (p=None)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not (2 <= self.p < 2**31):
                raise ValueError(f"prime out of supported range: {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"not a prime: {self.p}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(None)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @staticmethod
    def from_token(token: str) -> "FieldSpec":
        """Parse a CLI field token: 'q' for the rationals, a decimal prime for GF(p)."""
        token = token.strip().lower()
        if token in ("q", "qq", "0"):
            return FieldSpec(None)
        try:
            p = int(token)
        except ValueError:
            raise ValueError(f"bad field token: {token!r}") from None
        return FieldSpec(p)

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def token(self) -> str:
        return "q" if self.p is None else str(self.p)

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def normalize(self, x):
        """Coerce an int or Fraction into the canonical element representation."""
        if self.p is None:
            return Fraction(x)
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p) if self.p is not None else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def random(self, rng):
        """Uniform element over GF(p); small integer over the rationals."""
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-20, 20))

    def random_nonzero(self, rng):
        if self.p is not None:
            return rng.randrange(1, self.p)
        return Fraction(rng.choice([j for j in range(-20, 21) if j]))

    def __str__(self):
        return "QQ" if self.p is None else f"GF({self.p})"
