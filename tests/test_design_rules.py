"""The library's design rules as a tier-1 test: a table of calls and their scopes, and predicates.

A node's scopes are its file name and, inside a method of a top-level class of wha.py,
``Class.method``, plus ``cached Class.method`` for a ``cached_property``.  The module
imports nothing from the library.
"""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "whopf"

# A vector inside the library is a sparse dict index -> scalar (Element.terms); dense
# tuples appear only at the public edge, the methods on vectors in wha.py.
ADAPTERS = {"_Vector.__init__", "_Vector.coeffs", "Functional.__call__"} | {
    f"WeakHopfAlgebra.{name}" for name in (
        "mul_vec", "comul_vec", "counit_of", "left_mult_matrix", "right_mult_matrix", "invert_element", "pairing_table",
        "eps_t", "eps_s", "apply_S", "apply_S_inv", "lact", "ract", "dual_lact", "dual_ract")
}
# Arithmetic modulo a prime lives in linalg.py (the eliminator mod p and rational
# reconstruction) and fields.py (the prime, its roots and the embeddings), and it serves
# only solve_antipode, whose exact checks certify every modular result.  Anywhere else
# it would start an uncertified second copy.
MODULAR_FILES = {"linalg.py", "fields.py"}
MODULAR_HELPERS = ("_reconstruct", "_prime_root", "_is_prime")

# name: the scopes where a call f(...) or x.f(...) of that name may be made.
CALLS = {
    # Rational scalars are made by QQ (fields.py), which stores integral values as int;
    # a Fraction(...) call elsewhere would bypass that.
    "Fraction": {"fields.py"},
    # The bialgebra verdict is computed once per algebra, by the cached property
    # WeakHopfAlgebra.bialgebra_checks; a call anywhere else would silently compute it again.
    "validate_weak_bialgebra": {"cached WeakHopfAlgebra.bialgebra_checks"},
    # The integer image of the tables is built once per algebra, by the cached property
    # WeakHopfAlgebra.image; an _Image(...) call anywhere else would rebuild it.
    "_Image": {"cached WeakHopfAlgebra.image"},
    # mul_vec is the dense adapter over _mul, and _sparse, _dense and _basis the earlier
    # converters: the library calls none of them, adapters included.  Calls are read by
    # name only; the public constructors Element(h, v)/Functional(h, v) and .coeffs reads
    # are conversions this table does not see (the library uses them on vectors a caller
    # passes in, on linalg's dense solutions and in reports).
    "mul_vec": set(), "_sparse": set(), "_dense": set(), "_basis": set(),
    # The adapters read a vector through _terms and return one through _coeffs.
    "_terms": ADAPTERS, "_coeffs": ADAPTERS,
    **dict.fromkeys(MODULAR_HELPERS, MODULAR_FILES),
    # Library spans come from sparse rows (Subspace._span, which takes the field's own
    # scalars as they are).  from_vectors is the public entry point for dense vectors and
    # coerces every entry, zeros included; rref is the public dense view of a span, which
    # the bench tracer wraps.  Elsewhere both build n-entry dense rows read sparse again.
    "from_vectors": {"linalg.py"}, "rref": {"linalg.py"},
    # Library solves take and give sparse vectors: linalg._solve answers with a dict of the
    # nonzeros, and a Matrix is built from sparse rows (Matrix._sums).  try_solve and solve
    # are the public dense adapters over _solve, and from_columns the public dense
    # constructor by columns; each reads every entry through linalg._entries, so elsewhere
    # they convert a solution or a matrix to dense and back.
    "try_solve": {"linalg.py"}, "solve": {"linalg.py"}, "from_columns": {"linalg.py"},
    # A packed image is read back to the field only by Field.from_image (one scalar) and
    # Field.image_zero (a zero test), which fold its signed digits by z^n = 1 and reduce
    # them mod Phi_n; an _unpack call elsewhere reads digits that are not yet a scalar.
    "_unpack": {"fields.py"},
}


def called(node):
    """f for a call f(...) or x.f(...); else None."""
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", None) or getattr(func, "attr", None)


def receiver(node, method):
    """x for a call x.method(...); else None."""
    return node.func.value if called(node) == method and isinstance(node.func, ast.Attribute) else None


def is_attr(node, *attrs):
    return isinstance(node, ast.Attribute) and node.attr in attrs


def names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def defined(node):
    """The name of a function definition; else ""."""
    return node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""


def rows_read(node):
    return is_attr(node, "rows") and isinstance(node.ctx, ast.Load)


def loops(node):
    """(target, iterable) of a for statement, or of each generator of a comprehension; else none."""
    if isinstance(node, ast.For):
        return [(node.target, node.iter)]
    return [(gen.target, gen.iter) for gen in getattr(node, "generators", ())]


# name: a predicate on a node and its scopes.
RULES = {
    # python -O strips assert, so library checks must raise typed errors instead.
    "assert": lambda node, scopes: isinstance(node, ast.Assert),
    # Element and Functional are sequences over their coefficients, so only their own
    # operators in wha.py may dispatch on them with isinstance.
    "isinstance-vector": lambda node, scopes: (
        "wha.py" not in scopes and called(node) == "isinstance" and isinstance(node.func, ast.Name)
        and len(node.args) == 2 and bool(names(node.args[1]) & {"Element", "Functional"})
    ),
    # A three-argument pow(...) is arithmetic modulo a prime, and the modular helpers are
    # defined once (MODULAR_FILES).
    "modular-pow": lambda node, scopes: (
        not scopes & MODULAR_FILES and called(node) == "pow" and len(node.args) + len(node.keywords) == 3
    ),
    "modular-definition": lambda node, scopes: not scopes & MODULAR_FILES and defined(node) in MODULAR_HELPERS,
    # The polynomial helpers live once, in fields.py, and so do the radix, pack and unpack
    # helpers of the integer image: a _poly_* function, or one whose name starts with radix,
    # pack or unpack (leading underscores aside), defined elsewhere starts a second copy.
    "poly-definition": lambda node, scopes: "fields.py" not in scopes and defined(node).startswith("_poly_"),
    "pack-definition": lambda node, scopes: (
        "fields.py" not in scopes and defined(node).lstrip("_").startswith(("radix", "pack", "unpack"))
    ),
    # Products read the table through its index, mult_rows and mult_cols, which list only
    # the nonzero products.  A .mult.get(...) or .mult[...] lookup probes index pairs that
    # may multiply to zero.
    "mult-get": lambda node, scopes: is_attr(receiver(node, "get"), "mult"),
    "mult-subscript": lambda node, scopes: (
        isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and is_attr(node.value, "mult")
    ),
    # A loop or a comprehension over .mult.items() that groups the cells by one factor (a
    # setdefault keyed by a name its target binds) rebuilds the index locally.
    "mult-regroup": lambda node, scopes: any(
        is_attr(receiver(iterable, "items"), "mult") and any(
            receiver(call, "setdefault") and call.args and isinstance(call.args[0], ast.Name)
            and call.args[0].id in names(target) for call in ast.walk(node)
        )
        for target, iterable in loops(node)
    ),
    # S^2 is the cached WeakHopfAlgebra.S2 (and S^4 is S2 @ S2); a product of two .S
    # attributes outside that property computes it again, and so does a .S.power(...)
    # call anywhere, S2 included.
    "S@S": lambda node, scopes: (
        "cached WeakHopfAlgebra.S2" not in scopes and isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        and is_attr(node.left, "S") and is_attr(node.right, "S")
    ),
    "S.power": lambda node, scopes: is_attr(receiver(node, "power"), "S"),
    # A Matrix holds only its nonzeros, one dict per row (sparse_rows), and its rows
    # property builds the dense n x n tuples on every read.  So a .rows read on S, S2,
    # S_inv, antipode, eps_t_mat or eps_s_mat, or on the Matrix a left_mult_matrix,
    # right_mult_matrix, transpose or invert call returns, converts a sparse matrix back
    # to dense; a column is a row of the transpose's sparse_rows.
    "rows-of-matrix": lambda node, scopes: (
        rows_read(node) and is_attr(node.value, "S", "S2", "S_inv", "antipode", "eps_t_mat", "eps_s_mat")
    ),
    "rows-of-product": lambda node, scopes: (
        rows_read(node) and called(node.value) in {"left_mult_matrix", "right_mult_matrix", "transpose", "invert"}
    ),
    # A zip(*<expr>.rows) transposes dense rows by hand.
    "zip-rows": lambda node, scopes: called(node) == "zip" and isinstance(node.func, ast.Name) and any(
        isinstance(arg, ast.Starred) and rows_read(arg.value) for arg in node.args
    ),
}


def node_scopes(file_name, tree):
    """The scopes of each node of ``tree``, by the node's id."""
    scopes = {id(node): {file_name} for node in ast.walk(tree)}
    for cls in tree.body if file_name == "wha.py" else ():
        for fn in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(fn, ast.FunctionDef):
                method = f"{cls.name}.{fn.name}"
                cached = "cached_property" in map(ast.unparse, fn.decorator_list)
                for node in ast.walk(fn):
                    scopes[id(node)] |= {method, f"cached {method}"} if cached else {method}
    return scopes


def hits(file_name, source):
    """The sorted lines of ``source``, the text of a library file named ``file_name``, that break a rule."""
    tree = ast.parse(source)
    scopes = node_scopes(file_name, tree)
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if called(node) in CALLS and not CALLS[called(node)] & scopes[id(node)]
        or any(rule(node, scopes[id(node)]) for rule in RULES.values())
    })


def method(cls, name, line, cached=False):
    """A top-level class ``cls`` whose method ``name`` returns ``line``, on the snippet's last line."""
    decorator = "@cached_property" if cached else "# a plain method"
    return f"class {cls}:\n    {decorator}\n    def {name}(self):\n        return {line}"


# rule: ((file, snippet it must flag on its last line), (file, snippet it must pass))
CASES = {
    "Fraction": (("wha.py", "Fraction(1, 2)"), ("fields.py", "Fraction(1, 2)")),
    "validate_weak_bialgebra": (
        ("wha.py", method("WeakHopfAlgebra", "bialgebra_checks", "validate_weak_bialgebra(self)")),
        ("wha.py", method("WeakHopfAlgebra", "bialgebra_checks", "validate_weak_bialgebra(self)", cached=True)),
    ),
    "_Image": (
        ("wha.py", method("WeakHopfAlgebra", "dual", "wha._Image(self)", cached=True)),
        ("wha.py", method("WeakHopfAlgebra", "image", "wha._Image(self)", cached=True)),
    ),
    "mul_vec": (
        ("wha.py", method("WeakHopfAlgebra", "mul_vec", "self.mul_vec(a, b)")),
        ("wha.py", "product = WeakHopfAlgebra.mul_vec"),
    ),
    "_sparse": (("linalg.py", "_sparse(h, v)"), ("linalg.py", "def _sparse(h, v): pass")),
    "_dense": (("wha.py", method("Functional", "__call__", "_dense(self, v)")), ("wha.py", "import _dense")),
    "_basis": (("grouplikes.py", "_basis(h, 0)"), ("grouplikes.py", "from .wha import _basis")),
    "_terms": (
        ("wha.py", method("WeakHopfAlgebra", "generators", "_terms(self, v)")),
        ("wha.py", method("WeakHopfAlgebra", "eps_t", "_terms(self, v)")),
    ),
    "_coeffs": (("integrals.py", "wha._coeffs(h, t)"), ("wha.py", method("_Vector", "coeffs", "_coeffs(self, t)"))),
    "_reconstruct": (("wha.py", "_reconstruct(x, p)"), ("linalg.py", "_reconstruct(x, p)")),
    "_prime_root": (("twisting.py", "fields._prime_root(p, n)"), ("fields.py", "_prime_root(p, n)")),
    "_is_prime": (("grouplikes.py", "_is_prime(p)"), ("fields.py", "_is_prime(p)")),
    "from_vectors": (("wha.py", "Subspace.from_vectors(QQ, 2, vs)"), ("linalg.py", "Subspace.from_vectors(QQ, 2, vs)")),
    "rref": (("integrals.py", "linalg.rref(m)"), ("linalg.py", "rref(m)")),
    "try_solve": (("grouplikes.py", "try_solve(m, b)"), ("linalg.py", "try_solve(m, b)")),
    "solve": (("semisimplicity.py", "m.solve(b)"), ("linalg.py", "m.solve(b)")),
    "from_columns": (("twisting.py", "Matrix.from_columns(QQ, cols)"), ("linalg.py", "Matrix.from_columns(QQ, cols)")),
    "_unpack": (("wha.py", "fields._unpack(v, k)"), ("fields.py", "_unpack(v, k)")),
    "assert": (("errors.py", "assert WhopfError"), ("errors.py", "if not WhopfError: raise InvalidOperand('x')")),
    "isinstance-vector": (
        ("integrals.py", "isinstance(v, (Element, Functional))"), ("wha.py", "isinstance(v, Element)"),
    ),
    "modular-pow": (("wha.py", "pow(a, -1, p)"), ("linalg.py", "pow(a, -1, p)")),
    "modular-definition": (("twisting.py", "def _is_prime(n): pass"), ("linalg.py", "def _reconstruct(x, p): pass")),
    "poly-definition": (("linalg.py", "def _poly_mul(a, b): pass"), ("fields.py", "def _poly_mul(a, b): pass")),
    "pack-definition": (("wha.py", "def _unpack(x): pass"), ("fields.py", "def __radix(x): pass")),
    "mult-get": (("wha.py", "h.mult.get((a, b))"), ("wha.py", "h.mult_rows[a].get(b)")),
    "mult-subscript": (("wha.py", "h.mult[a, b]"), ("wha.py", "h.mult[a, b] = c")),
    "mult-regroup": (
        ("wha.py", "for (a, b), c in h.mult.items(): rows.setdefault(a, {})[b] = c"),
        ("wha.py", "for (a, b), c in h.mult.items(): cells.setdefault(str(c), []).append(a)"),
    ),
    "S@S": (
        ("wha.py", method("WeakHopfAlgebra", "S2", "self.S @ self.S")),
        ("wha.py", method("WeakHopfAlgebra", "S2", "self.S @ self.S", cached=True)),
    ),
    "S.power": (
        ("wha.py", method("WeakHopfAlgebra", "S2", "self.S.power(2)", cached=True)),
        ("grouplikes.py", "h.S2 @ h.S2"),
    ),
    "rows-of-matrix": (("integrals.py", "h.S_inv.rows"), ("integrals.py", "h.S_inv.sparse_rows")),
    "rows-of-product": (("grouplikes.py", "h.left_mult_matrix(g).rows"), ("grouplikes.py", "space.rows")),
    "zip-rows": (("semisimplicity.py", "zip(*m.rows)"), ("semisimplicity.py", "zip(*m.sparse_rows)")),
}


def test_the_library_keeps_the_design_rules():
    found = {str(path): lines for path in sorted(LIBRARY.rglob("*.py")) if (lines := hits(path.name, path.read_text()))}
    assert found == {}
    assert CASES.keys() == CALLS.keys() | RULES.keys(), "one case per rule"


@pytest.mark.parametrize("flagged, passing", CASES.values(), ids=list(CASES))
def test_each_rule_flags_its_break_and_passes_its_scope(flagged, passing):
    assert hits(*flagged) == [len(flagged[1].splitlines())]
    assert hits(*passing) == []


def test_mult_regroup_flags_a_comprehension_too():
    """A comprehension over .mult.items() that regroups the cells by a factor rebuilds the index as a loop does."""
    assert hits("wha.py", "[d.setdefault(a, []) for (a, b), c in h.mult.items()]") == [1]
    assert hits("wha.py", "{a: rows.setdefault(a, {}) for (a, b), c in h.mult.items()}") == [1]
    assert hits("wha.py", "[cells.setdefault(str(c), []) for (a, b), c in h.mult.items()]") == []
