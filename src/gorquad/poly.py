"""Polynomial rings and sparse polynomials over QQ or GF(p).

Polynomials store a tuple of (key, coeff) pairs sorted descending in the
ring's monomial order, with keys packed by the order codec.  All arithmetic
is exact; coefficients are Fractions over QQ and ints in [0, p) over GF(p),
and products and scalings take them through linalg's axpy and scaled.
RingCtx.parse reads text by core.scan with _TOKEN_RE, then by _Parser.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache

from .core import FieldSpec, RingMismatchError, TokenCursor, scan
from .linalg import axpy, scaled
from .orders import DEGREVLEX, MAX_PACKED_DEGREE, MonomialOrder

_PAST_PACKED = f"product degree exceeds the packed-monomial bound {MAX_PACKED_DEGREE}"


class RingCtx:
    """A polynomial ring: field, variables x1..xn, and a monomial order."""

    __slots__ = ("field", "nvars", "order", "names", "codec",
                 "_mon_cache", "_vars", "_name_index")

    def __init__(self, field: FieldSpec, nvars: int,
                 order: MonomialOrder = DEGREVLEX):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.field = field
        self.nvars = nvars
        self.order = order
        self.names = tuple(f"x{i}" for i in range(1, nvars + 1))
        self.codec = order.codec(nvars)
        self._mon_cache = {}
        self._vars = None
        self._name_index = {nm: j for j, nm in enumerate(self.names)}

    def _ident(self):
        return (self.field, self.nvars, self.order)

    def __eq__(self, other):
        return self is other or (isinstance(other, RingCtx)
                                 and self._ident() == other._ident())

    def __hash__(self):
        return hash(self._ident())

    def __str__(self):
        return f"{self.field}[{','.join(self.names)}] {self.order}"

    __repr__ = __str__

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, ((self.codec.one, self.field.one),))

    def constant(self, value) -> "Polynomial":
        c = self.field.normalize(value)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, ((self.codec.one, c),))

    def variables(self) -> tuple:
        if self._vars is None:
            one = self.field.one
            self._vars = tuple(Polynomial(self, ((vk, one),))
                               for vk in self.codec.var_keys)
        return self._vars

    def variable(self, name: str) -> "Polynomial":
        return self.variables()[self._name_index[name]]

    def monomials_of_degree(self, d: int) -> tuple:
        """All degree-d monomial keys, descending in the ring order."""
        if d < 0:
            return ()
        cached = self._mon_cache.get(d)
        if cached is None:
            n = self.nvars
            key = self.codec.key
            keys = []
            for combo in itertools.combinations_with_replacement(range(n), d):
                e = [0] * n
                for j in combo:
                    e[j] += 1
                keys.append(key(tuple(e)))
            keys.sort(reverse=True)
            cached = self._mon_cache[d] = tuple(keys)
        return cached

    def from_terms(self, pairs) -> "Polynomial":
        """Build a polynomial from (key, coeff) pairs, combining duplicates."""
        acc = {}
        field = self.field
        p, normalize = field.p, field.normalize
        for k, c in pairs:
            prev = acc.get(k)
            if prev is None:
                acc[k] = normalize(c)
            else:
                acc[k] = (prev + c) % p if p else prev + c
        zero = field.zero
        terms = tuple(sorted(((k, c) for k, c in acc.items() if c != zero),
                             reverse=True))
        return Polynomial(self, terms)

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).parse()


@lru_cache(maxsize=None)
def ring(field: FieldSpec, nvars: int,
         order: MonomialOrder = DEGREVLEX) -> RingCtx:
    """Shared ring factory; identical arguments return the same object."""
    return RingCtx(field, nvars, order)


class Polynomial:
    """Immutable sparse polynomial; terms descending in the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring_: RingCtx, terms: tuple):
        self.ring = ring_
        self.terms = terms

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        deg = self.ring.codec.degree
        return max(deg(k) for k, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        deg = self.ring.codec.degree
        d0 = deg(self.terms[0][0])
        return all(deg(k) == d0 for k, _ in self.terms)

    def leading_key(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"mixed rings: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        return _add_terms(self.ring, self.terms, other.terms, False)

    def __sub__(self, other):
        self._check(other)
        return _add_terms(self.ring, self.terms, other.terms, True)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return self.ring.zero
        if self.degree() + other.degree() > MAX_PACKED_DEGREE:
            raise ValueError(_PAST_PACKED)
        field, mul = self.ring.field, self.ring.codec.mul
        acc = {}
        for ka, ca in self.terms:
            axpy(acc, ca, {mul(ka, kb): cb for kb, cb in other.terms}, field)
        return Polynomial(self.ring, tuple(sorted(acc.items(), reverse=True)))

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        field = self.ring.field
        c0 = field.normalize(scalar)
        if c0 == field.zero:
            return self.ring.zero
        if c0 == field.one:
            return self
        return Polynomial(self.ring,
                          tuple(scaled(dict(self.terms), c0, field).items()))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- structural maps -----------------------------------------------------

    def compose(self, images) -> "Polynomial":
        """Substitute images[j] for the j-th variable: a one-off
        Substitution, which polynomials mapped alike should share."""
        return Substitution(self.ring, images)(self)

    def extend(self, target: RingCtx, var_map=None) -> "Polynomial":
        """Re-embed into target, sending variable j to variable var_map[j]
        (identity layout by default)."""
        if target.field != self.ring.field:
            raise RingMismatchError("extension must preserve the field")
        n = self.ring.nvars
        if var_map is None:
            var_map = tuple(range(n))
        exps = self.ring.codec.exps
        key = target.codec.key
        pairs = []
        for k, c in self.terms:
            e = [0] * target.nvars
            for j, ej in enumerate(exps(k)):
                if ej:
                    e[var_map[j]] += ej
            pairs.append((key(tuple(e)), c))
        return target.from_terms(pairs)

    # -- printing ------------------------------------------------------------

    def _mono_str(self, key) -> str:
        names = self.ring.names
        parts = [nm if e == 1 else f"{nm}^{e}"
                 for nm, e in zip(names, self.ring.codec.exps(key)) if e]
        return "*".join(parts) if parts else "1"

    def __str__(self):
        if not self.terms:
            return "0"
        rationals = self.ring.field.is_rationals
        pieces = []
        for i, (k, c) in enumerate(self.terms):
            if rationals and c < 0:
                sign, mag = ("-" if i == 0 else " - "), -c
            else:
                sign, mag = ("" if i == 0 else " + "), c
            mono = self._mono_str(k)
            if mono == "1":
                body = str(mag)
            elif mag == self.ring.field.one:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(sign + body)
        return "".join(pieces)

    def __repr__(self):
        return f"<{self} over {self.ring.field}>"


class Substitution:
    """The ring map sending the j-th variable of the source ring to
    images[j] (same field required).  Each monomial's image is a
    {key: coeff} dict built once, image(m) = image(m / x_j) * images[j] for
    the first variable x_j of m, and kept for every polynomial mapped; a
    polynomial's images are summed with axpy and sorted once."""

    __slots__ = ("source", "target", "images", "degrees", "memo")

    def __init__(self, source: RingCtx, images):
        images = tuple(images)
        if len(images) != source.nvars:
            raise ValueError("need one image per variable")
        target = images[0].ring
        for im in images:
            if im.ring != target:
                raise RingMismatchError("images live in different rings")
        if target.field != source.field:
            raise RingMismatchError("composition must preserve the field")
        self.source, self.target, self.images = source, target, images
        self.degrees = [im.degree() for im in images]
        self.memo = {source.codec.one: {target.codec.one: target.field.one}}

    def _image(self, m) -> dict:
        memo = self.memo
        if m not in memo:
            codec, shift = self.source.codec, self.target.codec.mul
            j = next(j for j, e in enumerate(codec.exps(m)) if e)
            sub, memo[m] = self._image(codec.div(m, codec.var_keys[j])), {}
            for kb, cb in self.images[j].terms:
                axpy(memo[m], cb, {shift(kb, t): c for t, c in sub.items()},
                     self.target.field)
        return memo[m]

    def __call__(self, p: Polynomial) -> Polynomial:
        if p.ring != self.source:
            raise RingMismatchError("polynomial is not in the source ring")
        exps = self.source.codec.exps
        acc = {}
        for k, c in p.terms:
            # ValueError exactly where multiplying out the powers images[j] **
            # e_j would raise it: a zero image (negative part) ends the product
            parts = [e * d for e, d in zip(exps(k), self.degrees) if e]
            live = next((i for i, d in enumerate(parts) if d < 0), len(parts))
            if max(max(parts, default=0), sum(parts[:live])) > MAX_PACKED_DEGREE:
                raise ValueError(_PAST_PACKED)
            axpy(acc, c, self._image(k), self.target.field)
        return Polynomial(self.target, tuple(sorted(acc.items(), reverse=True)))


def _add_terms(ring_: RingCtx, ta: tuple, tb: tuple, subtract: bool) -> Polynomial:
    acc = dict(ta)
    axpy(acc, -1 if subtract else 1, dict(tb), ring_.field)
    return Polynomial(ring_, tuple(sorted(acc.items(), reverse=True)))


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


class _Parser(TokenCursor):
    """Recursive-descent parser for the text form produced by __str__,
    plus parentheses: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := '-'* base ('^' int)?,
    base := int ('/' int)? | name | '(' expr ')'."""

    def __init__(self, ring_: RingCtx, text: str):
        self.ring = ring_
        super().__init__(scan(_TOKEN_RE, text))

    def parse(self) -> Polynomial:
        p = self._expr()
        tok = self._peek()
        if tok[0] != "end":
            self._err(f"unexpected {tok[1]!r}", tok)
        return p

    def _expr(self) -> Polynomial:
        kind, val, _, _ = self._peek()
        negate = False
        if kind == "op" and val in "+-":
            self._next()
            negate = val == "-"
        p = self._term()
        if negate:
            p = -p
        while True:
            kind, val, _, _ = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                q = self._term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def _term(self) -> Polynomial:
        p = self._factor()
        while True:
            kind, val, _, _ = self._peek()
            if kind == "op" and val == "*":
                self._next()
                p = p * self._factor()
            else:
                return p

    def _factor(self) -> Polynomial:
        kind, val, _, _ = self._peek()
        sign = 1
        while kind == "op" and val == "-":
            self._next()
            sign = -sign
            kind, val, _, _ = self._peek()
        p = self._base()
        kind, val, _, _ = self._peek()
        if kind == "op" and val == "^":
            self._next()
            tok = self._next()
            if tok[0] != "int":
                self._err("expected integer exponent", tok)
            p = p ** int(tok[1])
        return -p if sign < 0 else p

    def _base(self) -> Polynomial:
        tok = self._next()
        kind, val, _, _ = tok
        if kind == "int":
            num = int(val)
            nxt = self._peek()
            if nxt[0] == "op" and nxt[1] == "/":
                self._next()
                den_tok = self._next()
                if den_tok[0] != "int":
                    self._err("expected integer denominator", den_tok)
                den = int(den_tok[1])
                try:
                    return self.ring.constant(Fraction(num, den))
                except ZeroDivisionError:
                    self._err(f"denominator {den} is not invertible in "
                              f"{self.ring.field}", den_tok)
            return self.ring.constant(num)
        if kind == "name":
            idx = self.ring._name_index.get(val)
            if idx is None:
                self._err(f"unknown variable {val!r}", tok)
            return self.ring.variables()[idx]
        if kind == "op" and val == "(":
            p = self._expr()
            tok = self._next()
            if not (tok[0] == "op" and tok[1] == ")"):
                self._err("expected ')'", tok)
            return p
        self._err(f"unexpected {val!r}", tok)
