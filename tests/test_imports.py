"""Every name a module of the package imports is used in that module,
every private name it defines is used somewhere in the package, and no
module reads another object's private state outside an allowlist."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gorquad"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    """Names loaded anywhere in the module, plus the strings in `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports but never uses: {unused}"


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level private functions, classes and constants -> their node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node
    return {name: node for name, node in out.items()
            if name.startswith("_") and not name.startswith("__")}


def _references(tree: ast.AST) -> list:
    """Every name read in the tree, as a bare name or an attribute."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
    return refs


PACKAGE = {p: ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_orphaned_private_names(path):
    everywhere = [name for tree in PACKAGE.values() for name in _references(tree)]
    orphans = sorted(
        f"{name} (line {node.lineno})"
        for name, node in _private_definitions(PACKAGE[path]).items()
        if everywhere.count(name) == _references(node).count(name))
    assert not orphans, f"{path.name} defines but nothing uses: {orphans}"


ROOT = SRC.parent.parent
READERS = [ROOT / "src" / "gorquad", ROOT / "tests", ROOT / "perfbench"]


def _methods(tree: ast.Module):
    """(class, name) of every non-dunder method or property a class defines."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))):
                    yield cls.name, node.name


def test_every_method_is_read_as_an_attribute():
    """A method nothing reads as ``x.name`` is dead code.  The recipe
    evaluator's ``op_*`` handlers are found by getattr and are exempt."""
    read = {node.attr
            for folder in READERS for path in sorted(folder.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{cls}.{name}"
                    for tree in PACKAGE.values() for cls, name in _methods(tree)
                    if name not in read
                    and not (cls == "_Evaluator" and name.startswith("op_")))
    assert not unread, f"methods nothing reads: {unread}"


def test_random_steps_are_bounded():
    """A function taking an ``rng`` has no while loop: every random step
    draws from a fixed budget and raises GenericityError when it runs out."""
    unbounded = sorted(
        node.name for tree in PACKAGE.values() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(a.arg == "rng" for a in node.args.args + node.args.kwonlyargs)
        and any(isinstance(n, ast.While) for n in ast.walk(node)))
    assert not unbounded, f"functions drawing from rng with a while loop: {unbounded}"


def test_no_module_level_mutable_state():
    """No module binds a dict, list or set at module level, `__all__` aside:
    a cache goes through ``functools.lru_cache``, so no process or pool
    worker keeps state that a call fills in behind its arguments."""
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                ast.SetComp)
    bound = sorted(
        f"{path.stem}.{target.id} (line {node.lineno})"
        for path, tree in PACKAGE.items() for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, displays)
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if isinstance(target, ast.Name) and target.id != "__all__")
    assert not bound, f"module-level mutable state: {bound}"


def _functions(scope, prefix=""):
    """(qualified name, node) of every function and method under scope."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _functions(node, f"{prefix}{node.name}.")


def _attribute_setters(functions, attr) -> dict:
    """{qualified function name: [assigned value nodes]} of the functions
    that assign to an attribute named attr."""
    setters = {}
    for name, fn in functions:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Attribute) and t.attr == attr
                   for t in targets):
                setters.setdefault(name, []).append((node, fn))
    return setters


def _is_none(value) -> bool:
    return isinstance(value, ast.Constant) and value.value is None


def _returns_hvector(fn) -> bool:
    ann = fn.returns
    return (isinstance(ann, ast.Name) and ann.id == "HVector"
            or isinstance(ann, ast.Constant) and ann.value == "HVector")


def _hvector_valued(value, fn, line, makers) -> bool:
    """value, assigned in fn at line, is an HVector: a call of HVector or
    of a package function annotated to return one, or a local name whose
    last assignment before line is."""
    if isinstance(value, ast.Call):
        return isinstance(value.func, ast.Name) and value.func.id in makers
    if isinstance(value, ast.Name):
        earlier = [node for node in ast.walk(fn)
                   if isinstance(node, ast.Assign) and node.lineno < line
                   and any(isinstance(t, ast.Name) and t.id == value.id
                           for t in node.targets)]
        if earlier:
            last = max(earlier, key=lambda node: node.lineno)
            return _hvector_valued(last.value, fn, last.lineno, makers)
    return False


def test_the_hilbert_hint_stays_internal():
    """An ideal's ``_hilbert`` is None from ``Ideal.__init__`` or an HVector
    that its constructor proves, and hilbert_function returns it with no
    basis: only ``apolar_ideal``, ``_colon_out_of`` and
    ``_residual_almost_ci`` set it.  No callable takes a hilbert argument
    and no call passes one.  ``_dual_form`` is None from ``Ideal.__init__``
    and set only by ``apolar_ideal``."""
    functions = [(f"{path.stem}.{name}", node)
                 for path, tree in PACKAGE.items()
                 for name, node in _functions(tree)]
    taking = sorted(
        name for name, fn in functions
        if any("hilbert" in a.arg for a in fn.args.args
               + fn.args.posonlyargs + fn.args.kwonlyargs))
    assert not taking, f"callables taking a hilbert argument: {taking}"
    calls = [(name, node) for name, fn in functions for node in ast.walk(fn)
             if isinstance(node, ast.Call)]
    passers = sorted(name for name, call in calls
                     if any(k.arg and "hilbert" in k.arg
                            for k in call.keywords))
    assert not passers, f"calls passing a hilbert argument: {passers}"

    makers = {"HVector"} | {fn.name for _, fn in functions
                            if _returns_hvector(fn)}
    setters = _attribute_setters(functions, "_hilbert")
    assert set(setters) == {"groebner.Ideal.__init__",
                            "constructions.apolar_ideal",
                            "constructions._colon_out_of",
                            "constructions._residual_almost_ci"}
    assert all(_is_none(node.value)
               for node, _ in setters.pop("groebner.Ideal.__init__"))
    for name, sets in setters.items():
        for node, fn in sets:
            assert isinstance(node, ast.Assign), name
            assert _hvector_valued(node.value, fn, node.lineno, makers), name

    dual = _attribute_setters(functions, "_dual_form")
    assert set(dual) == {"groebner.Ideal.__init__",
                         "constructions.apolar_ideal"}
    assert all(_is_none(node.value)
               for node, _ in dual["groebner.Ideal.__init__"])
    for slot in ("_hilbert", "_dual_form"):
        named = [path.stem for path, tree in PACKAGE.items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and node.value == slot]
        assert named == ["groebner"], f"only Ideal.__slots__ names {slot}"


# The private names a module may read off another object or import from a
# sibling, with the modules that do.  The quotient table of B = R/I is not
# among them: only GroebnerBasis's own methods read it.
PRIVATE_READS = {
    "_hilbert": {"constructions", "invariants"},    # the Ideal's proven
    "_dual_form": {"constructions"},                # hints (linted above)
    "_asdict": {"cli"},                             # the namedtuple API
    "_fields": {"groebner"},
    "_FIELD_MAX": {"groebner"},
    "_cbase": {"orders"},
    "_name_index": {"poly"},
    "_ident": {"poly"},
    "_known_basis": {"constructions"},
    "_order_ideal_step": {"constructions"},
    "_fglm_walk": {"gin"},
    "_hvector_with_form": {"census", "gin"},
    "_regular_sequence_hvector": {"census"},
    "_variable_multiples": {"constructions"},
}
TABLE_INTERNALS = {"_level", "_caches", "_monomial_nf", "_build_level",
                   "_product_rows", "_monomial_rows", "_cache",
                   "_standard_multiples"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_reads(tree: ast.Module) -> list:
    """(name, line) of every private attribute the module reads or sets on
    an object other than ``self`` or ``cls``, and of every private name it
    imports from a sibling module."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.level:
            out.extend((alias.name, node.lineno) for alias in node.names
                       if _private(alias.name))
    return sorted(out, key=lambda read: read[1])


def test_the_private_read_lint_sees_reads_and_imports():
    caught = _private_reads(ast.parse(
        "from .invariants import _cache, as_basis\n"
        "from . import _x as y\n"
        "rows = gb._level(d)[0]\n"
        "self._caches[key] = self._left._cbase\n"
        "n = self.__class__.__name__\n"))
    assert caught == [("_cache", 1), ("_x", 2), ("_level", 3), ("_cbase", 4)]


def test_no_module_reads_another_objects_private_state():
    """No module reads a private attribute of another object or imports a
    private name from a sibling, outside PRIVATE_READS; the quotient
    table's storage is never on that list."""
    assert not TABLE_INTERNALS & set(PRIVATE_READS)
    found = sorted(f"{path.stem}: {name} (line {line})"
                   for path, tree in PACKAGE.items()
                   for name, line in _private_reads(tree)
                   if path.stem not in PRIVATE_READS.get(name, ()))
    assert not found, f"private reads outside the allowlist: {found}"


# One kernel path for the multiplication maps of B = R/I: only these
# functions read a basis's product_rows, and left_kernel runs only in the
# annihilator and on two other matrices, apolar_ideal's catalecticant rows
# and the linear forms gin inverts.
KERNEL_READERS = {
    "product_rows": {"invariants.annihilator",
                     "invariants.multiplication_rank"},
    "left_kernel": {"invariants.annihilator", "constructions.apolar_ideal",
                    "gin._inverse_change"},
}


def _readers(tree: ast.Module, name: str) -> set:
    """The module-level functions and methods (as Class.method) that read
    name, bare or as an attribute; "<module>" for a read outside them."""
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owners.extend((f"{node.name}.{item.name}", item)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef))
        else:
            owners.append((node.name if isinstance(node, ast.FunctionDef)
                           else "<module>", node))
    return {owner for owner, node in owners if name in _references(node)}


def test_the_kernel_lint_sees_bare_and_attribute_reads():
    tree = ast.parse("from .linalg import left_kernel\n"
                     "class B:\n"
                     "    def rows(self):\n"
                     "        return self.product_rows(2, g, std)\n"
                     "def f(rows):\n"
                     "    return left_kernel(rows, field)\n"
                     "g = map(left_kernel, batches)\n")
    assert _readers(tree, "left_kernel") == {"f", "<module>"}
    assert _readers(tree, "product_rows") == {"B.rows"}


def test_one_kernel_path_for_the_multiplication_maps():
    """The functions that read product_rows and left_kernel are exactly
    those KERNEL_READERS lists."""
    for name, allowed in KERNEL_READERS.items():
        found = {f"{path.stem}.{owner}" for path, tree in PACKAGE.items()
                 for owner in _readers(tree, name)}
        assert found == allowed, f"{name} read by {sorted(found)}"


def test_one_checked_linkage_entry():
    """Only _link builds a colon out of a complete intersection, so every
    linkage step passes its checks, and no module defines the one-field
    LinkStep wrapper that link once took."""
    found = {f"{path.stem}.{owner}" for path, tree in PACKAGE.items()
             for owner in _readers(tree, "_colon_out_of")}
    assert found == {"constructions._link"}, (
        f"_colon_out_of read by {sorted(found)}")
    defined = sorted(
        path.stem for path, tree in PACKAGE.items() for node in ast.walk(tree)
        if (isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name == "LinkStep")
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id == "LinkStep"))
    assert not defined, f"LinkStep defined in {defined}"


FIELD_ARITHMETIC = {"add", "sub", "mul", "neg"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _field_method(node) -> bool:
    """node reads a field's arithmetic method: ``field.mul``,
    ``ring.field.mul``, ``self.field.mul``."""
    if not (isinstance(node, ast.Attribute) and node.attr in FIELD_ARITHMETIC):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "field"
            or isinstance(owner, ast.Attribute) and owner.attr == "field")


def _field_arithmetic_in_loops(scope) -> list:
    """Lines where a loop in scope reads a field's arithmetic method, or
    calls a name the scope bound to one."""
    aliases = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)]
                         if not (isinstance(target, ast.Tuple)
                                 and isinstance(node.value, ast.Tuple))
                         else zip(target.elts, node.value.elts))
                aliases.update(t.id for t, v in pairs
                               if isinstance(t, ast.Name) and _field_method(v))
    return sorted({node.lineno
                   for loop in ast.walk(scope) if isinstance(loop, LOOPS)
                   for node in ast.walk(loop)
                   if _field_method(node)
                   or isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id in aliases})


def test_the_loop_lint_sees_field_arithmetic():
    caught = _field_arithmetic_in_loops(ast.parse(
        "add, zero = field.add, field.zero\n"
        "for k in src:\n"
        "    w = add(w, zero)\n"
        "rows = [ring.field.mul(c, v) for v in vs]\n"
        "mul = codec.mul\n"
        "while work:\n"
        "    t = mul(q, k)\n"))
    assert caught == [3, 4]


def test_per_term_loops_do_their_arithmetic_inline():
    """Every module computes each term as Python numbers reduced mod
    field.p, through linalg's axpy and scaled or inline, with no FieldSpec
    method call per term."""
    found = [f"{path.stem} (line {line})" for path, tree in PACKAGE.items()
             for line in _field_arithmetic_in_loops(tree)]
    assert not found, f"field arithmetic calls inside loops: {found}"
