"""Monomial orders compiled to packed-integer key codecs.

A codec maps an exponent vector to a small tuple of ints (the *key*) such that

  * plain tuple comparison of keys realizes the monomial order, and
  * componentwise integer addition (with a complement-base correction for the
    rev-lex packed fields) realizes monomial multiplication, and
  * divisibility and lcm are a constant number of big-int operations
    (guard-bit test).

Exponents are packed 8 bits per variable, so no exponent may exceed
_FIELD_MAX.  Polynomial multiplication refuses products of degree above
MAX_PACKED_DEGREE, and the quotient table (GroebnerBasis._level) refuses
degrees above _FIELD_MAX.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

_BITS = 8
_FIELD_MAX = 127          # complement base; per-variable exponent bound
MAX_PACKED_DEGREE = 60    # sums of two in-cap degrees must stay < _FIELD_MAX


def _guard_mask(n: int) -> int:
    g = 0
    for j in range(n):
        g |= 0x80 << (_BITS * j)
    return g


def _ge_bytes(a: int, b: int, guard: int) -> int:
    """0x7F in each packed byte where a's byte >= b's byte, else 0: with the
    guard bits set, a - b borrows from no byte, and each guard bit survives
    exactly where a's byte >= b's."""
    g = ((a | guard) - b) & guard
    return g - (g >> 7)


def _complement_base(n: int) -> int:
    c = 0
    for j in range(n):
        c |= _FIELD_MAX << (_BITS * j)
    return c


@dataclass(frozen=True)
class MonomialOrder:
    """Order spec: degrevlex (default), lex, or a block order eliminating the
    first elim_count variables (degrevlex inside each block)."""

    kind: str = "degrevlex"
    elim_count: int = 0

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown order kind: {self.kind}")
        if self.kind == "block":
            if self.elim_count < 1:
                raise ValueError("block order needs elim_count >= 1")
        elif self.elim_count:
            raise ValueError(f"{self.kind} order takes no elim_count")

    def codec(self, nvars: int):
        return _codec(self, nvars)

    def __str__(self):
        if self.kind == "block":
            return f"block(elim={self.elim_count})"
        return self.kind


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def elimination_order(elim_count: int) -> MonomialOrder:
    """Block order that eliminates the first elim_count variables."""
    return MonomialOrder("block", elim_count)


class _Codec:
    """What the three codecs share, written in terms of their key/exps.  Each
    codec packs its own lcm; this one is their test oracle."""

    __slots__ = ("nvars", "one")

    def lcm(self, ka, kb):
        ea, eb = self.exps(ka), self.exps(kb)
        return self.key(tuple(a if a > b else b for a, b in zip(ea, eb)))

    def var_key(self, j):
        """Key of the variable with zero-based index j."""
        e = [0] * self.nvars
        e[j] = 1
        return self.key(tuple(e))


class _DrlCodec(_Codec):
    """degrevlex: key = (degree, packed complement bytes, last variable most
    significant).  Bigger key tuple <=> bigger monomial."""

    __slots__ = ("_cbase", "_guard", "_top")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._cbase = _complement_base(nvars)
        self._guard = _guard_mask(nvars)
        self._top = _FIELD_MAX * nvars
        self.one = (0, self._cbase)

    def key(self, exps):
        packed = 0
        for j, e in enumerate(exps):
            if not 0 <= e <= _FIELD_MAX:
                raise ValueError(f"exponent {e} outside packed range")
            packed |= (_FIELD_MAX - e) << (_BITS * j)
        return (sum(exps), packed)

    def exps(self, key):
        p = key[1]
        return tuple(_FIELD_MAX - ((p >> (_BITS * j)) & 0xFF) for j in range(self.nvars))

    def mul(self, ka, kb):
        return (ka[0] + kb[0], ka[1] + kb[1] - self._cbase)

    def div(self, ka, kb):
        # monomial(ka) / monomial(kb); caller guarantees divisibility
        return (ka[0] - kb[0], ka[1] + self._cbase - kb[1])

    def divides(self, ka, kb):
        # does monomial(ka) divide monomial(kb)?
        g = self._guard
        return ((ka[1] | g) - kb[1]) & g == g

    def lcm(self, ka, kb):
        # the bytewise min of the complements
        a, b = ka[1], kb[1]
        m = a ^ ((a ^ b) & _ge_bytes(a, b, self._guard))
        return (self._top - sum(m.to_bytes(self.nvars, "little")), m)

    def degree(self, key):
        return key[0]


class _LexCodec(_Codec):
    """lex: key = (packed direct bytes, first variable most significant)."""

    __slots__ = ("_guard",)

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._guard = _guard_mask(nvars)
        self.one = (0,)

    def key(self, exps):
        n = self.nvars
        packed = 0
        for j, e in enumerate(exps):
            if not 0 <= e <= _FIELD_MAX:
                raise ValueError(f"exponent {e} outside packed range")
            packed |= e << (_BITS * (n - 1 - j))
        return (packed,)

    def exps(self, key):
        p = key[0]
        n = self.nvars
        return tuple((p >> (_BITS * (n - 1 - j))) & 0xFF for j in range(n))

    def mul(self, ka, kb):
        return (ka[0] + kb[0],)

    def div(self, ka, kb):
        return (ka[0] - kb[0],)

    def divides(self, ka, kb):
        g = self._guard
        return ((kb[0] | g) - ka[0]) & g == g

    def lcm(self, ka, kb):
        # the bytewise max
        a, b = ka[0], kb[0]
        return (b ^ ((a ^ b) & _ge_bytes(a, b, self._guard)),)

    def degree(self, key):
        return sum(self.exps(key))


class _BlockCodec(_Codec):
    """Elimination block order: degrevlex on the first k variables, then
    degrevlex on the rest.  key = (deg1, packed1, deg2, packed2)."""

    __slots__ = ("k", "_left", "_right")

    def __init__(self, nvars: int, k: int):
        if not 1 <= k < nvars:
            raise ValueError("elim_count must be in [1, nvars-1]")
        self.nvars = nvars
        self.k = k
        self._left = _DrlCodec(k)
        self._right = _DrlCodec(nvars - k)
        self.one = self._left.one + self._right.one

    def key(self, exps):
        k = self.k
        return self._left.key(exps[:k]) + self._right.key(exps[k:])

    def exps(self, key):
        return self._left.exps(key[:2]) + self._right.exps(key[2:])

    def mul(self, ka, kb):
        cl, cr = self._left._cbase, self._right._cbase
        return (ka[0] + kb[0], ka[1] + kb[1] - cl, ka[2] + kb[2], ka[3] + kb[3] - cr)

    def div(self, ka, kb):
        cl, cr = self._left._cbase, self._right._cbase
        return (ka[0] - kb[0], ka[1] + cl - kb[1], ka[2] - kb[2], ka[3] + cr - kb[3])

    def divides(self, ka, kb):
        gl, gr = self._left._guard, self._right._guard
        return (((ka[1] | gl) - kb[1]) & gl == gl
                and ((ka[3] | gr) - kb[3]) & gr == gr)

    def lcm(self, ka, kb):
        return (self._left.lcm(ka[:2], kb[:2])
                + self._right.lcm(ka[2:], kb[2:]))

    def degree(self, key):
        return key[0] + key[2]


@lru_cache(maxsize=None)
def _codec(order: MonomialOrder, nvars: int):
    if order.kind == "degrevlex":
        return _DrlCodec(nvars)
    if order.kind == "lex":
        return _LexCodec(nvars)
    return _BlockCodec(nvars, order.elim_count)
