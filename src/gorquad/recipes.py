"""Text formats behind the command line: ideal files and construction recipes.

An *ideal file* is a line-oriented description of a homogeneous ideal::

    # text after a hash is a comment
    field 32003
    vars 6
    x1^2
    x1*x2 + 3*x2^2

The two headers may appear in either order; either may be omitted when the
caller supplies a default (the CLI's ``--field``/``--vars`` flags).  Every
other non-blank line is one generator in the usual polynomial grammar
(``+``, ``-``, ``*``, ``^``, integer coefficients, variables ``x1..xn``).

A *recipe file* is a small declarative language for constructions: one step
per line, an optional ``name =`` binding, and the value of the last line as
the result::

    seed = apolar "x1*x2 + x1*x3 + x2*x3" vars=3
    grow seed rounds=1

Step arguments are integers, bare words (references to earlier bindings),
``key=value`` pairs, quoted polynomial literals, or parenthesised
sub-steps, e.g. ``tensor (apolar-generic 4 2) (apolar-generic 4 2)``.
A step line is read by core.scan with _STEP_RE (parentheses, ``=``, quoted
text, atoms), the scanner of the polynomial grammar with its own pattern.
Steps that draw randomness derive their default seed from the recipe-wide
seed as ``seed * 1000003 + k`` with ``k`` the step's evaluation ordinal
(pre-order, left to right), so a recipe is reproducible as a whole while
distinct steps stay independent; any step may pin ``seed=`` explicitly.

``link X ci=Y`` links X by the cover Y, which must be a complete
intersection inside X, in X's ring.  A bare ``link X`` uses the cover of
variable squares when X contains every one of them; otherwise it links by a
quadric complete intersection of length ``vars`` drawn inside X from the
step's seed, and fails (GenericityError) when no such sequence turns up.
"""

from __future__ import annotations

import random
import re

from .constructions import (apolar_ideal, embed_with_linear_gens,
                            group_table_algebra, link, link_by_squares,
                            linkage_grow, quadric_ci, random_dual_form,
                            regular_sequence_in, tensor_algebras)
from .core import FieldSpec, GenericityError, ParseError, TokenCursor, scan
from .groebner import Ideal
from .idealops import colon_form
from .invariants import hilbert_function
from .poly import Polynomial, RingCtx, ring

# -- ideal files -----------------------------------------------------------------


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_ideal(text: str, field: FieldSpec | None = None,
                nvars: int | None = None) -> Ideal:
    """Read an ideal file.  ``field``/``nvars`` fill in for missing headers;
    a header that contradicts a supplied default is an error, as is a
    non-homogeneous or unparseable generator (reported with its line)."""
    header_field = None
    header_vars = None
    gen_lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "field" and header_field is None and not gen_lines:
            try:
                header_field = FieldSpec.from_token(rest)
            except ValueError as exc:
                raise ParseError(str(exc), no)
            continue
        if head == "vars" and header_vars is None and not gen_lines:
            try:
                header_vars = int(rest)
            except ValueError:
                raise ParseError(f"bad variable count {rest!r}", no)
            continue
        gen_lines.append((no, len(raw) - len(raw.lstrip()), line))
    if header_field is not None and field is not None and header_field != field:
        raise ParseError(f"field header {header_field.token} contradicts "
                         f"--field {field.token}")
    if header_vars is not None and nvars is not None and header_vars != nvars:
        raise ParseError(f"vars header {header_vars} contradicts --vars {nvars}")
    field = header_field if header_field is not None else field
    nvars = header_vars if header_vars is not None else nvars
    if field is None:
        raise ParseError("no field: add a 'field <q|p>' header or pass --field")
    if nvars is None:
        raise ParseError("no variable count: add a 'vars <n>' header or pass --vars")
    if not gen_lines:
        raise ParseError("no generators")
    R = ring(field, nvars)
    gens = []
    for no, indent, line in gen_lines:
        try:
            p = R.parse(line)
        except ParseError as exc:
            raise ParseError(exc.message, no, exc.col + indent) from None
        if p.is_zero():
            continue
        if not p.is_homogeneous():
            raise ParseError("generator is not homogeneous", no)
        gens.append(p)
    if not gens:
        raise ParseError("no generators")
    return Ideal(R, gens)


def format_ideal(I: Ideal, comments=()) -> str:
    """Render an ideal file; ``parse_ideal`` reads it back generator for
    generator.  ``comments`` become leading ``#`` lines."""
    out = [f"# {c}" if c else "#" for c in comments]
    out.append(f"field {I.ring.field.token}")
    out.append(f"vars {I.ring.nvars}")
    out.extend(str(g) for g in I.gens)
    return "\n".join(out) + "\n"


# -- recipe tokenizer -------------------------------------------------------------

# An unterminated quote takes the rest of its line: nothing after it is scanned.
_STEP_RE = re.compile(r'(?P<ws>\s+)|(?P<lparen>\()|(?P<rparen>\))|(?P<eq>=)'
                      r'|"(?P<quoted>[^"]*)"|(?P<unterminated>".*)'
                      r'|(?P<atom>[A-Za-z0-9_.@/-]+)')


def _tokenize_step(line: str, no: int):
    tokens = scan(_STEP_RE, line, no)
    kind, _, _, col = tokens[-2]
    if kind == "unterminated":
        raise ParseError("unterminated quote", no, col)
    return tokens


class _Call:
    """One parsed step: an operation with positional and keyword arguments
    (argument values are strings, quoted literals, or nested _Call nodes)."""

    __slots__ = ("op", "args", "kwargs", "line")

    def __init__(self, op, args, kwargs, line):
        self.op = op
        self.args = args
        self.kwargs = kwargs
        self.line = line


class _StepParser(TokenCursor):
    def parse_stmt(self):
        name = None
        if (self._peek()[0] == "atom" and self.tokens[self.i + 1][0] == "eq"):
            name = self._next()[1]
            self._next()
        call = self.parse_call()
        tok = self._peek()
        if tok[0] != "end":
            self._err(f"unexpected {tok[1]!r}", tok)
        return name, call

    def parse_call(self):
        tok = self._next()
        if tok[0] != "atom":
            self._err("expected an operation name", tok)
        op = tok[1]
        args, kwargs = [], {}
        while True:
            kind, val, no, col = self._peek()
            if kind in ("end", "rparen"):
                return _Call(op, args, kwargs, no)
            if kind == "atom" and self.tokens[self.i + 1][0] == "eq":
                self._next()
                self._next()
                kwargs[val] = self._parse_value()
            else:
                args.append(self._parse_value())

    def _parse_value(self):
        kind, val, no, col = self._peek()
        if kind == "lparen":
            self._next()
            call = self.parse_call()
            closing = self._next()
            if closing[0] != "rparen":
                self._err("expected ')'", closing)
            return call
        if kind == "quoted":
            self._next()
            return ("quoted", val, col)   # col: the opening quote
        if kind == "atom":
            self._next()
            return ("atom", val)
        self._err(f"unexpected {val!r}", (kind, val, no, col))


def parse_recipe(text: str):
    """Parse a recipe file into ``(name, call)`` statements plus the
    normalized source lines kept for provenance comments."""
    stmts = []
    source = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        # tokens carry their columns in the unstripped line
        parser = _StepParser(_tokenize_step(line, no))
        stmts.append(parser.parse_stmt())
        source.append(line.strip())
    if not stmts:
        raise ParseError("empty recipe")
    return stmts, source


# -- recipe evaluation ------------------------------------------------------------


class _Evaluator:
    def __init__(self, field: FieldSpec, seed: int):
        self.field = field
        self.seed = seed
        self.env = {}
        self.counter = 0

    def run(self, stmts) -> Ideal:
        result = None
        for name, call in stmts:
            result = self.eval_call(call)
            if name is not None:
                self.env[name] = result
        return result

    def step_seed(self, call) -> int:
        ordinal = self.counter
        self.counter += 1
        if "seed" in call.kwargs:
            return self.int_arg(call, "seed", call.kwargs["seed"])
        return self.seed * 1000003 + ordinal

    # -- argument coercion --------------------------------------------------

    def fail(self, call, msg):
        raise ParseError(f"{call.op}: {msg}", call.line)

    def int_arg(self, call, label, value):
        if isinstance(value, tuple) and value[0] == "atom":
            try:
                return int(value[1])
            except ValueError:
                pass
        self.fail(call, f"{label} must be an integer")

    def ideal_arg(self, call, label, value) -> Ideal:
        if isinstance(value, _Call):
            return self.eval_call(value)
        if isinstance(value, tuple) and value[0] == "atom":
            token = value[1]
            if token in self.env:
                return self.env[token]
            if token.startswith("@"):
                with open(token[1:], encoding="utf-8") as fh:
                    return parse_ideal(fh.read(), field=self.field)
            self.fail(call, f"{label}: unknown name {token!r}")
        self.fail(call, f"{label} must name an ideal (a binding, "
                  "a parenthesised step, or @file)")

    def poly_arg(self, call, label, value, R: RingCtx) -> Polynomial:
        if not (isinstance(value, tuple) and value[0] == "quoted"):
            self.fail(call, f"{label} must be a quoted polynomial")
        try:
            p = R.parse(value[1])
        except ParseError as exc:
            raise ParseError(f"{call.op}: {exc.message}", call.line,
                             value[2] + exc.col) from None
        if p.is_zero() or not p.is_homogeneous():
            self.fail(call, f"{label} must be homogeneous and nonzero")
        return p

    def take(self, call, *, positional=0, keys=()):
        if len(call.args) != positional:
            self.fail(call, f"takes {positional} positional argument(s), "
                      f"got {len(call.args)}")
        extra = set(call.kwargs) - set(keys) - {"seed"}
        if extra:
            self.fail(call, f"unknown argument(s): {', '.join(sorted(extra))}")

    # -- operations ----------------------------------------------------------

    def eval_call(self, call) -> Ideal:
        step_seed = self.step_seed(call)
        handler = getattr(self, "op_" + call.op.replace("-", "_"), None)
        if handler is None:
            # a bare reference to an earlier binding is a valid step
            if call.op in self.env and not call.args and not call.kwargs:
                return self.env[call.op]
            self.fail(call, "unknown operation")
        return handler(call, step_seed)

    def op_ci(self, call, step_seed):
        self.take(call, keys=("r", "style"))
        if "r" not in call.kwargs:
            self.fail(call, "needs r=<int>")
        r = self.int_arg(call, "r", call.kwargs["r"])
        style = call.kwargs.get("style", ("atom", "monomial"))
        if isinstance(style, _Call):
            self.fail(call, "style must be a word, not a step")
        return quadric_ci(r, self.field, style=style[1], seed=step_seed)

    def op_apolar(self, call, step_seed):
        self.take(call, positional=1, keys=("vars",))
        if "vars" not in call.kwargs:
            self.fail(call, "needs vars=<n>")
        n = self.int_arg(call, "vars", call.kwargs["vars"])
        R = ring(self.field, n)
        return apolar_ideal(self.poly_arg(call, "form", call.args[0], R))

    def op_apolar_generic(self, call, step_seed):
        self.take(call, positional=2)
        n = self.int_arg(call, "vars", call.args[0])
        d = self.int_arg(call, "degree", call.args[1])
        R = ring(self.field, n)
        rng = random.Random(step_seed)
        for _ in range(5):
            F = random_dual_form(R, d, rng)
            I = apolar_ideal(F)
            if hilbert_function(I)[1] == n:
                return I
        raise GenericityError(
            f"no nondegenerate form of degree {d} in {n} variables after "
            f"5 draws (seed {step_seed})")

    def op_group(self, call, step_seed):
        self.take(call, positional=1, keys=("r",))
        if "r" not in call.kwargs:
            self.fail(call, "needs r=<int>")
        i = self.int_arg(call, "group index", call.args[0])
        r = self.int_arg(call, "r", call.kwargs["r"])
        return group_table_algebra(r, i, self.field)

    def op_tensor(self, call, step_seed):
        self.take(call, positional=2)
        A = self.ideal_arg(call, "first factor", call.args[0])
        B = self.ideal_arg(call, "second factor", call.args[1])
        return tensor_algebras(A, B)

    def op_grow(self, call, step_seed):
        self.take(call, positional=1, keys=("rounds", "jump"))
        G = self.ideal_arg(call, "seed ideal", call.args[0])
        rounds = 1
        if "rounds" in call.kwargs:
            rounds = self.int_arg(call, "rounds", call.kwargs["rounds"])
        jump = 1
        if "jump" in call.kwargs:
            jump = self.int_arg(call, "jump", call.kwargs["jump"])
        return linkage_grow(G, rounds=rounds, first_new_vars=jump)[-1]

    def op_link(self, call, step_seed):
        self.take(call, positional=1, keys=("ci",))
        I = self.ideal_arg(call, "ideal", call.args[0])
        if "ci" in call.kwargs:
            C = self.ideal_arg(call, "ci", call.kwargs["ci"])
            if C.ring != I.ring:
                self.fail(call, "the cover must live in the ideal's ring")
            cover = C
        elif all(I.contains(v * v) for v in I.ring.variables()):
            return link_by_squares(I)
        else:
            cover = regular_sequence_in(I, [2] * I.ring.nvars,
                                        random.Random(step_seed))
        return link(I, cover)

    def op_embed(self, call, step_seed):
        self.take(call, positional=1, keys=("vars",))
        I = self.ideal_arg(call, "ideal", call.args[0])
        if "vars" not in call.kwargs:
            self.fail(call, "needs vars=<n>")
        n = self.int_arg(call, "vars", call.kwargs["vars"])
        return embed_with_linear_gens(I, n)

    def op_colon(self, call, step_seed):
        self.take(call, positional=1, keys=("by",))
        I = self.ideal_arg(call, "ideal", call.args[0])
        if "by" not in call.kwargs:
            self.fail(call, "needs by=\"<form>\"")
        f = self.poly_arg(call, "by", call.kwargs["by"], I.ring)
        return colon_form(I, f)


def run_recipe(text: str, field: FieldSpec | None = None,
               seed: int = 0) -> tuple:
    """Evaluate a recipe and return ``(ideal, source_lines)``; the source
    lines are the normalized steps, for provenance comments in the output
    ideal file.  Deterministic in ``(text, field, seed)``."""
    field = field if field is not None else FieldSpec.rationals()
    stmts, source = parse_recipe(text)
    ideal = _Evaluator(field, seed).run(stmts)
    return ideal, source
