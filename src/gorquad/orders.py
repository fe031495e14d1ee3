"""Monomial orders compiled to packed-integer key codecs.

The package has two orders: degrevlex, and the elimination block orders
built from it.  A codec maps an exponent vector to one int (the *key*; a
pair of degrevlex keys for a block order, one per block) such that

  * int comparison of keys realizes the monomial order, and
  * integer addition, less the complement base of the rev-lex packed
    bytes, realizes monomial multiplication, and
  * divisibility and lcm are a constant number of big-int operations
    (guard-bit test).

Exponents are packed 8 bits per variable, so no exponent may exceed
_FIELD_MAX.  Polynomial multiplication refuses products of degree above
MAX_PACKED_DEGREE, and the quotient table's methods on GroebnerBasis
refuse degrees above _FIELD_MAX.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

_BITS = 8
_FIELD_MAX = 127          # complement base; per-variable exponent bound
MAX_PACKED_DEGREE = 60    # sums of two in-cap degrees must stay < _FIELD_MAX


def _repeated(byte: int, n: int) -> int:
    """byte in each of n packed fields: 0x80 gives the guard bits, _FIELD_MAX
    the complement base."""
    return int.from_bytes(bytes((byte,)) * n, "little")


@dataclass(frozen=True)
class MonomialOrder:
    """Order spec: degrevlex (default), or a block order eliminating the
    first elim_count variables (degrevlex inside each block)."""

    kind: str = "degrevlex"
    elim_count: int = 0

    def __post_init__(self):
        if self.kind not in ("degrevlex", "block"):
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


def elimination_order(elim_count: int) -> MonomialOrder:
    """Block order that eliminates the first elim_count variables."""
    return MonomialOrder("block", elim_count)


class _Codec:
    """What the two codecs share, written in terms of their key/exps.  Each
    codec packs its own lcm; this one is their test oracle.  var_keys is the
    tuple of the variables' keys, x_j at index j, built once per codec (and
    codecs are cached per order and number of variables), so callers index
    it instead of packing exponent vectors."""

    __slots__ = ("nvars", "one", "var_keys")

    def _set_var_keys(self):
        n = self.nvars
        self.var_keys = tuple(self.key(tuple(int(i == j) for i in range(n)))
                              for j in range(n))

    def lcm(self, ka, kb):
        ea, eb = self.exps(ka), self.exps(kb)
        return self.key(tuple(a if a > b else b for a, b in zip(ea, eb)))


class _DrlCodec(_Codec):
    """degrevlex: key = degree << 8n | packed bytes, byte j holding the
    complement _FIELD_MAX - e_j (the last variable most significant).  The
    packed part lies below 2^(8n), so int comparison compares the degree,
    then the complements: bigger key <=> bigger monomial.  mul and div add
    keys less or plus the complement base.  divides sets the guard bit of
    each packed byte of ka and subtracts kb: no byte borrows from the next,
    a guard bit survives iff ka's complement is at least kb's there, and a
    degree difference sits above the packed bytes, so never reaches them."""

    __slots__ = ("_cbase", "_guard", "_mask", "_shift", "_top")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._shift = _BITS * nvars
        self._mask = (1 << self._shift) - 1
        self._cbase = _repeated(_FIELD_MAX, nvars)
        self._guard = _repeated(0x80, nvars)
        self._top = _FIELD_MAX * nvars
        self.one = self._cbase
        self._set_var_keys()

    def key(self, exps):
        packed = 0
        for j, e in enumerate(exps):
            if not 0 <= e <= _FIELD_MAX:
                raise ValueError(f"exponent {e} outside packed range")
            packed |= (_FIELD_MAX - e) << (_BITS * j)
        return sum(exps) << self._shift | packed

    def exps(self, key):
        return tuple(_FIELD_MAX - ((key >> (_BITS * j)) & 0xFF) for j in range(self.nvars))

    def mul(self, ka, kb):
        return ka + kb - self._cbase

    def div(self, ka, kb):
        # monomial(ka) / monomial(kb); caller guarantees divisibility
        return ka - kb + self._cbase

    def divides(self, ka, kb):
        # does monomial(ka) divide monomial(kb)?
        g = self._guard
        return ((ka | g) - kb) & g == g

    def lcm(self, ka, kb):
        # the bytewise min of the complements: ge keeps the guard bit of each
        # byte where a's byte >= b's, and ge - (ge >> 7) spreads it to 0x7F
        a, b, g = ka & self._mask, kb & self._mask, self._guard
        ge = ((a | g) - b) & g
        m = a ^ ((a ^ b) & (ge - (ge >> 7)))
        return (self._top - sum(m.to_bytes(self.nvars, "little"))) << self._shift | m

    def degree(self, key):
        return key >> self._shift


class _BlockCodec(_Codec):
    """Elimination block order: degrevlex on the first k variables, then
    degrevlex on the rest.  key = (left key, right key), each a _DrlCodec
    key, so tuple comparison ranks the first block before the second."""

    __slots__ = ("k", "_left", "_right")

    def __init__(self, nvars: int, k: int):
        if not 1 <= k < nvars:
            raise ValueError("elim_count must be in [1, nvars-1]")
        self.nvars = nvars
        self.k = k
        self._left = _DrlCodec(k)
        self._right = _DrlCodec(nvars - k)
        self.one = (self._left.one, self._right.one)
        self._set_var_keys()

    def key(self, exps):
        k = self.k
        return (self._left.key(exps[:k]), self._right.key(exps[k:]))

    def exps(self, key):
        return self._left.exps(key[0]) + self._right.exps(key[1])

    def mul(self, ka, kb):
        return (ka[0] + kb[0] - self._left._cbase, ka[1] + kb[1] - self._right._cbase)

    def div(self, ka, kb):
        return (ka[0] - kb[0] + self._left._cbase, ka[1] - kb[1] + self._right._cbase)

    def divides(self, ka, kb):
        return self._left.divides(ka[0], kb[0]) and self._right.divides(ka[1], kb[1])

    def lcm(self, ka, kb):
        return (self._left.lcm(ka[0], kb[0]), self._right.lcm(ka[1], kb[1]))

    def degree(self, key):
        return self._left.degree(key[0]) + self._right.degree(key[1])


@lru_cache(maxsize=None)
def _codec(order: MonomialOrder, nvars: int):
    if order.kind == "degrevlex":
        return _DrlCodec(nvars)
    return _BlockCodec(nvars, order.elim_count)
