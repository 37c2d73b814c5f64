"""Weak Hopf algebras as exact structure constants.

A weak Hopf algebra H is an associative unital algebra that is also a
coassociative counital coalgebra, with a multiplicative comultiplication,
weakened unit/counit axioms, and an antipode S.  Here H is stored as sparse
structure constants over an exact field:

* ``mult[(i, j)]`` maps k to the coefficient of e_k in e_i e_j,
* ``comult[i]`` maps (j, k) to the coefficient of e_j (x) e_k in Delta(e_i),
* ``unit`` / ``counit`` are the coefficient vectors of 1 and eps,
* ``antipode`` is the matrix with S(e_j) = sum_i S[i, j] e_i (optional until
  solved or supplied).

The basis of H (x) H is ordered by (i, j) -> i*dim + j throughout.  All axiom
checks decide every basis tuple and report the witness a scan over all of
them would report; nothing is randomized, and where a check reads fewer
tuples, ``validate_weak_bialgebra`` gives the exact argument.

Every product kernel reads the table through one index, cached on first
use: ``mult_rows[i]`` maps j to the cell of e_i e_j and ``mult_cols[j]``
maps i to the same cell object, listing only the nonzero products, in
``mult``'s order.  A kernel joins these rows with the nonzeros of its
operands (the row-wise sparse product of Gustavson, ACM TOMS 1978), so its
cost follows the nonzero products, not the index pairs it could probe.
The index and the other cached properties derive from ``field``,
``labels``, ``dim``, ``mult``, ``comult``, ``unit`` and ``counit``, so
those cannot be reassigned once ``__init__`` has finished.

Every validation scan (the bialgebra axioms and the three antipode
axioms) reads the integer image of the tables instead, the cached property
``image`` (delayed reduction, as in FFLAS-FFPACK, Dumas, Giorgi and Pernet
2008).  One builder, ``linalg._Columns``, images each table a scan reads:
the index, the coproducts, eps_t, eps_s, S, the identity, 1, eps and the
rank factors of Delta(1) and E2.
Each table is scaled by the lcm D of its denominators, D_m for mult and
D_c for comult, and imaged once per radix.  Over Q the image holds ints,
and a table with D = 1 is used as it is.  Over Q(zeta_n) each scaled
coefficient vector is packed into one int at a radix K (the Kronecker
substitution z -> 2^K; Harvey 2009), so a product of scalars is one int
product and a sum one int sum (``Field.image`` and ``Field.radix``).  Each
scan compares an identity scaled by the same integer on both sides: for
instance multiplicativity compares D_c D_m times the image of
Delta(e_i e_j) with the product of the images of Delta(e_i) and
Delta(e_j), both D_c^2 D_m^2 Delta(e_i e_j) when the axiom holds.  Scaling
by a nonzero integer and packing below the radix bound are injective, so
each scaled identity holds exactly when the scalar one does; the scans
keep their order, so every verdict and first witness is the same.  A scan
picks its own K from the bound s N phi^(m-1) A_1 ... A_m on the digits of
a side: N products of m factor images are summed into one entry, A_i is
the largest absolute coefficient of factor i's image and s the integer
scale of the side.  K is the least with 2^(K-1) > 2 bound, as the two
sides are subtracted, rounded up to a multiple of 16.  An entry is compared
by the signed digits of the difference, folded by z^n = 1 and reduced mod
Phi_n once (``Field.image_zero``).  ``solve_antipode`` solves mod p first,
and those scans certify what it finds.  The producers ``mul_pair_dicts``
and ``contraction_matrix``, like ``Matrix @``, make one round trip: they
image their operands, run the same join with zero 0, and read each nonzero
output entry back to one scalar (``Field.from_image``).

Each verdict is computed once per input.  The weak bialgebra checks read
only ``mult``, ``comult``, ``unit`` and ``counit``, which cannot be
reassigned after ``__init__``, so they are the cached property
``bialgebra_checks``.
The antipode is written once: given to ``__init__``, or assigned while it
is still None, through the same n x n check and conversion to Matrix.  So
``S2``, ``S_inv`` and ``dual``, which read S, are plain cached properties.
The antipode checks sit in a one-entry memo of (S, checks), keyed on the S
object, and it now serves only the candidate S that ``solve_antipode``
checks before any algebra holds it: the algebra that then takes that S, by
assignment or through ``with_antipode``, validates without checking it
again.  ``with_antipode`` also hands on the bialgebra verdict, and
``dualize(H)`` starts with H's passing verdicts of each kind.
``validate_full`` assembles a new report from the two parts, whose frozen
checks it shares.

A vector inside the library is a sparse dict index -> nonzero scalar, the
row format of ``Matrix.sparse_rows``.  ``Element`` and ``Functional`` bind
one to its algebra as ``terms``, with ``coeffs`` the dense view, and are
read-only sequences over it.  Each public method on vectors (``mul_vec``,
``lact``, ``apply_S``, ...) is a dense adapter: it reads its vectors
through ``_terms``, calls the sparse body the library calls (``_mul``,
``_arrow``, ``Matrix._apply``, ...) and returns a tuple through
``_coeffs``.  A matrix (S, eps_t, eps_s, L_a, R_a, and the pairing table
T[a, b] = <phi, e_a e_b> of a functional phi, E2 for the counit) is a
sparse ``linalg.Matrix``, whose columns a kernel reads as the rows of its
transpose.  A subspace (H_t, H_s, H_min, integrals) is a sparse
``linalg.Subspace``, spanned from sparse rows and read through them.

The theory comes in mirrored pairs (eps_t/eps_s, H_t/H_s, phi -> h and
h <- phi, left and right multiplication), and each pair shares one body
with the side as a parameter.  The counital maps of both sides, here and in
the twisting and group-like modules, are all ``contraction_matrix``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

from .errors import (
    Axiom26Failure,
    Degenerate,
    FieldMismatch,
    Inconsistent,
    InvalidOperand,
    InvalidPresentation,
    NoAntipode,
    NoAntipodeInverse,
    NotInvertible,
    NotUnique,
    Singular,
)
from .fields import Field
from .linalg import (
    Matrix, Subspace, _coerced, _Columns, _from_images, _insert, _solve, _solve_modular, invert, kernel_on, solve_sparse
)

__all__ = [
    "AxiomCheck",
    "Element",
    "Functional",
    "MinimalData",
    "ValidationReport",
    "WeakHopfAlgebra",
    "contraction_matrix",
    "counital_maps",
    "counital_subalgebras",
    "dualize",
    "generating_rows",
    "integral_space",
    "minimal_data",
    "solve_antipode",
    "validate_weak_bialgebra",
    "validate_full",
]


# ---------------------------------------------------------------------------
# elements and functionals


def _terms(h, vec):
    """The nonzeros of a vector of h as a dict index -> scalar: the one way in from a dense vector.

    An Element or Functional of h is read as its ``terms``, and one of another algebra is refused
    (InvalidOperand); any other vector needs one entry per basis element (else InvalidPresentation),
    each coerced into the field (FieldMismatch).
    """
    if isinstance(vec, _Vector):
        if vec.algebra is not h:
            raise InvalidOperand(f"a vector of {vec.algebra.name} handed to {h.name}, another algebra")
        return vec.terms
    if isinstance(vec, Mapping):  # iterating a dict would read its keys as the coefficients
        raise InvalidOperand("a coefficient vector is a sequence of scalars, not a mapping")
    if len(vec := tuple(vec)) != h.dim:
        raise InvalidPresentation(f"{len(vec)} coefficients for dim {h.dim}")
    coerce = h.field.coerce
    return {i: c for i, x in enumerate(vec) if (c := coerce(x))}


def _coeffs(h, terms):
    """The sparse vector ``terms`` of h as a coefficient tuple: the one way out to a dense vector."""
    zero = h.field.zero()
    return tuple(terms.get(i, zero) for i in range(h.dim))


def _on_basis(h, tensor, width=2):
    """Whether every key of the sparse tensor is a tuple of ``width`` basis indices of h."""
    n = h.dim
    return all(
        type(key) is tuple and len(key) == width and all(isinstance(i, int) and 0 <= i < n for i in key)
        for key in tensor
    )


def _pruned(d):
    """The sparse dict d without its zero values."""
    return {k: v for k, v in d.items() if v}


def _minus(x, y, zero):
    """x - y for sparse vectors x and y; not pruned."""
    return {k: x.get(k, zero) - y.get(k, zero) for k in x.keys() | y.keys()}


def _common(row, sparse):
    """(key, row[key], sparse[key]) for each key of both dicts, walking the shorter one."""
    if len(row) < len(sparse):
        return [(k, cell, sparse[k]) for k, cell in row.items() if k in sparse]
    return [(k, row[k], v) for k, v in sparse.items() if k in row]


def _paired(phi, x, zero):
    """<phi, x> = sum of phi_k x_k over the keys of both sparse vectors."""
    return sum((a * b for _k, a, b in _common(phi, x)), zero)


def _pair_of(a, b):
    """The sparse pair tensor a (x) b of two sparse vectors, skipping their zero values."""
    return {(i, j): x * y for i, x in a.items() if x for j, y in b.items() if y}


def _comultiplied(comult, zero, tensor, leg):
    """(Delta (x) id) of a sparse pair tensor for leg 0, (id (x) Delta) for leg 1, by the table
    ``comult`` (an algebra's, or its image's with zero 0); not pruned."""
    out = {}
    for legs, c in tensor.items():
        for (a, b), c2 in comult[legs[leg]].items():
            key = (a, b, legs[1]) if leg == 0 else (legs[0], a, b)
            out[key] = out.get(key, zero) + c * c2
    return out


def _contract_leg(zero, scaled, phi, paired):
    """Sum of x w <phi, e_p> e_q over the terms w e_a (x) e_b of x T, (x, T) in ``scaled``; sparse, not pruned.

    Each T is a sparse pair tensor, phi a sparse functional (index -> scalar or image, with ``zero``),
    e_p the leg of T numbered ``paired`` (0 for e_a) and e_q the other one.
    """
    out = {}
    for x, tensor in scaled:
        for legs, w in tensor.items():
            p = phi.get(legs[paired])
            if p:
                q = legs[1 - paired]
                out[q] = out.get(q, zero) + x * w * p
    return out


def contraction_matrix(h, tensor, table, side):
    """Matrix contracting one leg of a sparse pair tensor against the Matrix ``table``.

    For tensor = sum w e_a (x) e_b, column i is sum w table[a, i] e_b on
    side "t" and sum w table[i, b] e_a on side "s".  With Delta(1) and
    E2[i, j] = eps(e_i e_j) these are eps_t and eps_s.  Side "s" reads the
    sparse rows of the table and side "t" those of its transpose, as images
    (radix bound |tensor| phi A_tensor A_table).
    """
    field = h.field
    lines, leg = (table.transpose(), 0) if side == "t" else (table, 1)
    t, phis = _Columns(field, [tensor]), _Columns(field, lines.sparse_rows)
    radix = field.radix((1, len(tensor), t.a, phis.a))
    scaled, d = [(1, t.at(radix)[0])], t.d * phis.d
    cols = [_contract_leg(0, scaled, phi, leg) for phi in phis.at(radix)]
    return Matrix._of(field, _from_images(field, cols, d, radix), h.dim).transpose()


def _matrix_of_pairs(h, pairs):
    """The n x n Matrix with entry (a, b) the e_a (x) e_b coefficient of the sparse pair tensor ``pairs``."""
    rows = [{} for _ in range(h.dim)]
    for (a, b), c in pairs.items():
        rows[a][b] = c
    return Matrix._sums(h.field, rows, h.dim)


class _Vector:
    """Vector bound to its algebra, stored as ``terms``, its nonzeros as a dict index -> scalar.

    ``coeffs`` is the dense view, built on each read, and the vector is a
    read-only sequence over it, so it goes wherever a plain tuple of scalars
    goes.  It is not a tuple subclass: ``+`` and ``*`` here are vector
    operations, and a vector never equals a plain tuple.  The public
    constructor reads a vector through ``_terms``; ``_of`` takes trusted
    terms, nonzero scalars of the field, as they are, like ``Matrix._of``.
    """

    __slots__ = ("algebra", "terms")
    _suffix = ""  # appended to each basis label in repr

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.terms = _terms(algebra, coeffs)

    @classmethod
    def _of(cls, algebra, terms):
        v = object.__new__(cls)
        v.algebra, v.terms = algebra, terms
        return v

    @property
    def coeffs(self):
        return _coeffs(self.algebra, self.terms)

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return self.algebra.dim

    def __getitem__(self, i):
        return self.coeffs[i]

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if getattr(other, "algebra", None) is not self.algebra:
            raise FieldMismatch("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return self - -other

    def __sub__(self, other):
        self._check(other)
        return self._of(self.algebra, _pruned(_minus(self.terms, other.terms, self.algebra.field.zero())))

    def __neg__(self):
        return self._of(self.algebra, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return self._of(self.algebra, self._product(other))
        c = self.algebra.field.coerce(other)
        return self._of(self.algebra, {k: v * c for k, v in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is type(self) and self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        h, terms = self.algebra, self.terms
        parts = [f"{h.field.format(terms[i])}*{h.labels[i]}{self._suffix}" for i in sorted(terms)]
        return " + ".join(parts) if parts else "0"


class Element(_Vector):
    """Element of H as a coefficient vector over the basis."""

    __slots__ = ()

    def _product(self, other):
        return self.algebra._mul(self.terms, other.terms)

    def is_invertible(self):
        return self.algebra._mult_matrix(self.terms, True).is_invertible()

    def inv(self):
        return Element._of(self.algebra, self.algebra._inverse(self.terms))


class Functional(_Vector):
    """Element of the dual H* in the dual basis, with convolution product."""

    __slots__ = ()
    _suffix = "^"

    def __call__(self, x):
        return _paired(self.terms, _terms(self.algebra, x), self.algebra.field.zero())

    def _product(self, other):
        # convolution: (phi psi)(e_i) = sum of c phi_j psi_k over Delta(e_i) = sum c e_j (x) e_k
        h, a, b = self.algebra, self.terms, other.terms
        zero = h.field.zero()
        sums = (sum((c * a[j] * b[k] for (j, k), c in d.items() if j in a and k in b), zero) for d in h.comult)
        return {i: s for i, s in enumerate(sums) if s}

    def as_dual_element(self):
        return Element._of(self.algebra.dual, self.terms)

    def is_invertible(self):
        return self.as_dual_element().is_invertible()

    def inv(self):
        return Functional._of(self.algebra, self.as_dual_element().inv().terms)


# ---------------------------------------------------------------------------
# validation report


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    witness: tuple = None
    detail: str = ""

    def as_dict(self):
        out = {"axiom": self.name, "ok": self.ok}
        if not self.ok:
            out["witness"] = list(self.witness) if self.witness else None
            out["detail"] = self.detail
        return out


class ValidationReport:
    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def as_dict(self):
        return {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]}

    def __repr__(self):
        bad = self.failures()
        if not bad:
            return f"ValidationReport(ok, {len(self.checks)} axioms)"
        return f"ValidationReport(FAILED: {[c.name for c in bad]})"


# ---------------------------------------------------------------------------
# the algebra


def _index_pair(key, n, what):
    """The basis index pair ``key`` of a ``what`` entry; InvalidPresentation if malformed."""
    try:
        i, j = key
    except (TypeError, ValueError):
        raise InvalidPresentation(f"{what} key {key!r} is not an index pair") from None
    if i not in range(n) or j not in range(n):
        raise InvalidPresentation(f"{what} index pair {key!r} out of range for dim {n}")
    return i, j


def _index_lines(h, leg):
    """The cells of ``h.mult`` themselves, grouped by leg ``leg`` of their index pair, in its order."""
    lines = [{} for _ in range(h.dim)]
    for ij, cell in h.mult.items():
        lines[ij[leg]][ij[1 - leg]] = cell
    return tuple(lines)


class _Image:
    """The integer image of an algebra's tables; ``WeakHopfAlgebra.image`` builds it once.

    ``mult`` images the index ``mult_rows`` and ``comult`` the coproducts, each a ``_Columns``;
    ``counital`` adds eps_t and eps_s on first use.
    """

    def __init__(self, h):
        self.mult = _Columns(h.field, h.mult_rows, cells=True)
        self.comult = _Columns(h.field, h.comult)
        self._counital = None

    def counital(self, h):
        """eps_t and eps_s of h, the algebra of this image, as ``_Columns`` of their columns, made on first use."""
        if self._counital is None:
            self._counital = tuple(_Columns(h.field, m.transpose().sparse_rows) for m in counital_maps(h).values())
        return self._counital


def _differ(field, radix, lhs, rhs):
    """Whether two sparse vectors of images at ``radix`` differ over the field; neither need be pruned.

    Ints are compared as they are.  Packed ints that differ are compared by
    ``Field.image_zero`` of their difference, entry by entry.  The scans
    call this only when the raw dicts differ, so sums that cancel to zero
    are pruned only then.
    """
    if _pruned(lhs) == _pruned(rhs):
        return False
    return radix is None or not all(
        field.image_zero(lhs.get(p, 0) - rhs.get(p, 0), radix) for p in lhs.keys() | rhs.keys()
    )


# the inputs of an algebra and its table index and image; the cached structure derives from them
_FIXED = frozenset(
    {"field", "labels", "dim", "mult", "comult", "unit", "counit", "mult_rows", "mult_cols", "image"}
)


class WeakHopfAlgebra:
    def __init__(self, field, labels, mult, unit, comult, counit, antipode=None, name=""):
        if not isinstance(field, Field) or not isinstance(mult, Mapping):
            raise InvalidPresentation("an algebra needs a Field and a mapping mult")
        self.field = field
        self.labels = tuple(labels)
        n = self.dim = len(self.labels)
        self.name = name or "H"
        for what, seq in (("unit", unit), ("counit", counit), ("comult", comult)):
            if len(seq) != n:
                raise InvalidPresentation(f"{what} has {len(seq)} entries for dim {n}")
        coerce = field.coerce
        indices = range(n)
        self.mult = {}
        for key, cell in mult.items():
            ij = _index_pair(key, n, "mult")
            clean = {}
            for k, c in cell.items():
                if k not in indices:
                    raise InvalidPresentation(f"mult{list(ij)} has output index {k!r} out of range")
                if c and (c := coerce(c)):
                    clean[k] = c
            if clean:
                self.mult[ij] = clean
        coproducts = []
        for i in indices:
            clean = {}
            for jk, c in comult[i].items():
                jk = _index_pair(jk, n, f"comult[{i}]")
                if c := coerce(c):
                    clean[jk] = c
            coproducts.append(clean)
        self.comult = tuple(coproducts)
        self.unit = tuple(coerce(c) for c in unit)
        self.counit = tuple(coerce(c) for c in counit)
        self.antipode = antipode
        self._antipode_memo = None  # (S, antipode_axiom_checks(self, S)) for the last S checked
        self._built = True

    def __setattr__(self, name, value):
        if "_built" in vars(self) and (name in _FIXED or name == "antipode" and self.antipode is not None):
            raise AttributeError(f"cannot reassign {name}: the table index and cached values derive from it")
        if name == "antipode" and value is not None:
            n = self.dim
            if isinstance(value, Matrix):
                square = value.nrows == value.ncols == n
            else:
                square = isinstance(value, Sequence) and len(value) == n and all(
                    isinstance(row, Sequence) and len(row) == n for row in value
                )
            if not square:
                raise InvalidPresentation(f"antipode is not a {n}x{n} matrix")
            if not isinstance(value, Matrix):
                value = Matrix(self.field, value)
        object.__setattr__(self, name, value)

    # -- the index of the table ---------------------------------------------

    @cached_property
    def mult_rows(self):
        """``mult_rows[i]`` maps j to the cell of e_i e_j, for each nonzero product."""
        return _index_lines(self, 0)

    @cached_property
    def mult_cols(self):
        """``mult_cols[j]`` maps i to the cell of e_i e_j, for each nonzero product."""
        return _index_lines(self, 1)

    @cached_property
    def image(self):
        """The integer image of mult and comult that the validation scans read (``_Image``)."""
        return _Image(self)

    # -- basic accessors ----------------------------------------------------

    def element(self, coeffs):
        return Element(self, coeffs)

    def functional(self, coeffs):
        return Functional(self, coeffs)

    def basis_element(self, i):
        return Element._of(self, {range(self.dim)[i]: self.field.one()})

    def dual_basis_functional(self, i):
        return Functional._of(self, {range(self.dim)[i]: self.field.one()})

    @cached_property
    def _unit_terms(self):
        """The terms of 1 and eps, made once; ``one``/``eps`` wrap them per read, so the algebra holds no cycle."""
        return Element(self, self.unit).terms, Element(self, self.counit).terms

    @property
    def one(self):
        return Element._of(self, self._unit_terms[0])

    @property
    def eps(self):
        return Functional._of(self, self._unit_terms[1])

    def same_structure(self, other):
        """Structure-constant equality (labels and names ignored)."""
        if self.field != other.field or self.dim != other.dim:
            return False
        if self.mult != other.mult or self.comult != other.comult:
            return False
        if self.unit != other.unit or self.counit != other.counit:
            return False
        if (self.antipode is None) != (other.antipode is None):
            return False
        return self.antipode is None or self.antipode == other.antipode

    # -- products and coproducts --------------------------------------------

    def mul_vec(self, a, b):
        """The product ab of two coefficient vectors, as a tuple (a dense adapter: module docstring)."""
        return _coeffs(self, self._mul(_terms(self, a), _terms(self, b)))

    def _mul(self, x, y):
        """The product xy of two sparse vectors, pruned: ``_join`` of the rows of the index at supp(x) with y."""
        return _pruned(_join(self.mult_rows, x, y, self.field.zero()))

    def comul_vec(self, a):
        """Delta(a) as a sparse pair tensor, for a coefficient vector a."""
        return self._comul(_terms(self, a))

    def _comul(self, x):
        """Delta(x) as a sparse pair tensor, for a sparse vector x."""
        out, zero = {}, self.field.zero()
        for i, c in x.items():
            for jk, c2 in self.comult[i].items():
                out[jk] = out.get(jk, zero) + c * c2
        return _pruned(out)

    def counit_of(self, a):
        return self.eps(a)

    def left_mult_matrix(self, a):
        """Matrix of x -> a*x."""
        return self._mult_matrix(_terms(self, a), True)

    def right_mult_matrix(self, a):
        """Matrix of x -> x*a."""
        return self._mult_matrix(_terms(self, a), False)

    def _mult_matrix(self, a, left):
        """Column j is a e_j (left) or e_j a, scattered from line i of the index for i in supp(a), a sparse.

        The line is row i of ``mult_rows`` (left) or of ``mult_cols`` (right),
        so only the nonzero products e_i e_j or e_j e_i are visited.
        """
        zero = self.field.zero()
        lines, rows = self.mult_rows if left else self.mult_cols, [{} for _ in range(self.dim)]
        for i, x in a.items():
            for j, cell in lines[i].items():
                for k, c in cell.items():
                    row = rows[k]
                    row[j] = row.get(j, zero) + x * c
        return Matrix._sums(self.field, rows, self.dim)

    def invert_element(self, a):
        return _coeffs(self, self._inverse(_terms(self, a)))

    def _inverse(self, a):
        """The two-sided inverse of the sparse vector a, sparse; NotInvertible when there is none."""
        sol = _solve(self._mult_matrix(a, True), self.one.terms)
        if sol is None or sol[1].dim:
            raise NotInvertible("element has no two-sided inverse")
        x = _coerced(self.field, sol[0])
        if self._mul(x, a) != self.one.terms:
            raise NotInvertible("left inverse is not a right inverse")
        return x

    # -- sparse tensors on H (x) H and H (x) H (x) H -------------------------

    def mul_pair_dicts(self, p, q):
        """Product in H (x) H of two sparse pair-tensors.

        q is grouped by its first leg once.  For each term e_a (x) e_b of p,
        row a of the index is joined with those groups (walking the shorter)
        and row b is read only at the second legs of the groups reached.  So
        the cost is the term pairs whose first legs multiply to nonzero, plus
        the shorter side of each join, not the |p| |q| pairs of terms.  It joins
        the images of p, q and the index (radix bound |p| |q| phi^3 A_p A_q A_m^2).
        InvalidOperand unless every key of p and q is a pair of basis indices.
        """
        if not (_on_basis(self, p) and _on_basis(self, q)):
            raise InvalidOperand(f"a key of p or q is not a pair of basis indices below {self.dim}")
        field, mult, pq = self.field, self.image.mult, _Columns(self.field, [p, q])
        radix = field.radix((1, len(p) * len(q), pq.a, pq.a, mult.a, mult.a))
        got = _pair_product(mult.at(radix), *pq.at(radix), 0)
        return _from_images(field, [got], (pq.d * mult.d) ** 2, radix)[0]

    def mul_triple_dicts(self, p, q):
        """Product in H (x) H (x) H of two sparse triple-tensors, joined and checked like ``mul_pair_dicts``."""
        if not (_on_basis(self, p, 3) and _on_basis(self, q, 3)):
            raise InvalidOperand(f"a key of p or q is not a triple of basis indices below {self.dim}")
        zero = self.field.zero()
        rows = self.mult_rows
        by_first = {}
        for (b1, b2, b3), cq in q.items():
            by_first.setdefault(b1, []).append((b2, b3, cq))
        out = {}
        for (a1, a2, a3), cp in p.items():
            row2, row3 = rows[a2], rows[a3]
            if not (row2 and row3):
                continue
            for _b1, m1, group in _common(rows[a1], by_first):
                for b2, b3, cq in group:
                    m2 = row2.get(b2)
                    if m2 is None:
                        continue
                    m3 = row3.get(b3)
                    if m3 is None:
                        continue
                    cc = cp * cq
                    for k1, c1 in m1.items():
                        for k2, c2 in m2.items():
                            cc2 = cc * c1 * c2
                            for k3, c3 in m3.items():
                                key = (k1, k2, k3)
                                out[key] = out.get(key, zero) + cc2 * c3
        return _pruned(out)

    @cached_property
    def delta_one(self):
        """Delta(1) as a sparse pair-tensor."""
        return self._comul(self.one.terms)

    def pairing_table(self, phi):
        """The sparse Matrix T[a, b] = <phi, e_a e_b>: row a is phi <- e_a and column b is e_b -> phi."""
        zero, phi = self.field.zero(), _terms(self, phi)
        rows = [{b: _paired(cell, phi, zero) for b, cell in line.items()} for line in self.mult_rows]
        return Matrix._sums(self.field, rows, self.dim)

    @cached_property
    def counit_product(self):
        """The pairing table E2 of the counit, E2[i, j] = eps(e_i e_j)."""
        return self.pairing_table(self.eps)

    # -- counital maps and subalgebras ---------------------------------------

    @cached_property
    def eps_t_mat(self):
        """eps_t(h) = eps(1_(1) h) 1_(2)."""
        return contraction_matrix(self, self.delta_one, self.counit_product, "t")

    @cached_property
    def eps_s_mat(self):
        """eps_s(h) = 1_(1) eps(h 1_(2))."""
        return contraction_matrix(self, self.delta_one, self.counit_product, "s")

    def eps_t(self, a):
        return _coeffs(self, self.eps_t_mat._apply(_terms(self, a)))

    def eps_s(self, a):
        return _coeffs(self, self.eps_s_mat._apply(_terms(self, a)))

    @cached_property
    def target_base(self):
        return self._image(self.eps_t_mat)

    @cached_property
    def source_base(self):
        return self._image(self.eps_s_mat)

    def _image(self, mat):
        return Subspace._span(self.field, self.dim, map(dict.items, mat.transpose().sparse_rows))

    @cached_property
    def minimal_subalgebra(self):
        """H_min = H_t H_s, the span of all products of base elements and the bases themselves."""
        ts, ss, zero = self.target_base.sparse_rows, self.source_base.sparse_rows, self.field.zero()
        prods = [_join(self.mult_rows, t, s, zero) for t in ts for s in ss]
        return Subspace._span(self.field, self.dim, map(dict.items, prods + list(ts + ss)))

    def centralizer_in(self, space, against=None):
        """{y in space : yw = wy for all w in against}, default against = H.

        In an associative H the centralizer of y is a subalgebra, so it is
        enough to commute with the rows ``generating_rows`` picks, whose words
        span every row of ``against`` (closed under products or not), or with
        ``generators`` when ``against`` is H.  When ``associativity_witness``
        reports a failure, every row is used.  Each commutator a w - w a of a
        row a of ``space`` is joined from the index as a sparse dict; the
        kernel is a canonical Subspace.
        """
        if self.associativity_witness is not None:
            picked = range(self.dim if against is None else against.dim)
        else:
            picked = self.generators if against is None else generating_rows(self, against)
        if against is None:
            against = Subspace.full(self.field, self.dim)
        zero = self.field.zero()
        basis = space.sparse_rows
        rows = []
        for g in picked:
            w = against.sparse_rows[g]
            by_coord = {}  # r -> {c: e_r coefficient of a_c w - w a_c}
            for c, a in enumerate(basis):
                commutator = _join(self.mult_rows, a, w, zero)
                for r, v in _join(self.mult_cols, a, w, zero).items():
                    commutator[r] = commutator.get(r, zero) - v
                for r, v in commutator.items():
                    if v:
                        by_coord.setdefault(r, {})[c] = v
            rows += by_coord.values()
        return kernel_on(space, rows)

    @cached_property
    def left_integrals(self):
        """{ell : e_i ell = eps_t(e_i) ell for all i}, solved once per algebra."""
        return integral_space(self, "left")

    @cached_property
    def right_integrals(self):
        """{r : r e_i = r eps_s(e_i) for all i}, solved once per algebra."""
        return integral_space(self, "right")

    @cached_property
    def center(self):
        return self.centralizer_in(Subspace.full(self.field, self.dim))

    @cached_property
    def center_cap_source(self):
        """Z(H) cap H_s."""
        return self.centralizer_in(self.source_base)

    def subspace_closed_under_mult(self, space):
        rows = space.sparse_rows
        return all(space._has(self._mul(a, b)) for a in rows for b in rows)

    # -- antipode -------------------------------------------------------------

    @property
    def S(self):
        if self.antipode is None:
            raise NoAntipode("antipode not set; call solve_antipode")
        return self.antipode

    def with_antipode(self, s):
        """The same structure constants and name with antipode ``s``, as a new algebra.

        The new algebra starts with this one's bialgebra verdicts, if computed,
        and with its antipode verdict if that was computed for this very S.
        """
        out = WeakHopfAlgebra(
            self.field, self.labels, self.mult, self.unit, self.comult, self.counit,
            antipode=s, name=self.name,
        )
        for name in ("generators", "associativity_witness", "bialgebra_checks"):
            if name in vars(self):
                setattr(out, name, vars(self)[name])
        if self._antipode_memo is not None and self._antipode_memo[0] is out.antipode:
            out._antipode_memo = self._antipode_memo
        return out

    # -- verdicts ---------------------------------------------------------------

    @cached_property
    def generators(self):
        """``generating_rows`` of H: basis indices whose right-nested words span H."""
        return generating_rows(self, Subspace.full(self.field, self.dim))

    @cached_property
    def associativity_witness(self):
        """The associativity check alone, once: its witness (i, j, l), or None when H is associative.

        ``bialgebra_checks`` reuses it, and ``centralizer_in`` reads it
        without running the other axioms.
        """
        return _associativity(self, self.generators)

    @cached_property
    def bialgebra_checks(self):
        """``validate_weak_bialgebra``'s checks, once: they read only mult, comult, unit and counit."""
        return tuple(validate_weak_bialgebra(self).checks)

    def antipode_checks(self, s):
        """``antipode_axiom_checks(self, s)``, reused while the last S checked is ``s``."""
        memo = self._antipode_memo
        if memo is None or memo[0] is not s:
            memo = self._antipode_memo = (s, tuple(antipode_axiom_checks(self, s)))
        return memo[1]

    @cached_property
    def S2(self):
        """S^2, once: S cannot change after it is set."""
        return self.S @ self.S

    @cached_property
    def S_inv(self):
        try:
            return invert(self.S)
        except Singular as exc:
            raise NoAntipodeInverse(str(exc)) from exc

    def apply_S(self, a):
        return _coeffs(self, self.S._apply(_terms(self, a)))

    def apply_S_inv(self, a):
        return _coeffs(self, self.S_inv._apply(_terms(self, a)))

    # -- Sweedler arrows ------------------------------------------------------

    def lact(self, phi, a):
        """phi -> h = h_(1) <phi, h_(2)>; functional acting on the left."""
        return _coeffs(self, self._arrow(_terms(self, a), _terms(self, phi), 1))

    def ract(self, a, phi):
        """h <- phi = <phi, h_(1)> h_(2)."""
        return _coeffs(self, self._arrow(_terms(self, a), _terms(self, phi), 0))

    def _arrow(self, a, phi, paired):
        """ract (``paired`` 0) or lact (1) for a sparse vector a and a sparse functional phi, pruned."""
        return _pruned(_contract_leg(self.field.zero(), [(x, self.comult[i]) for i, x in a.items()], phi, paired))

    def dual_lact(self, a, phi):
        """h -> phi: the functional g |-> <phi, g h>."""
        return _coeffs(self, self._dual_arrow(_terms(self, a), _terms(self, phi), self.mult_cols))

    def dual_ract(self, phi, a):
        """phi <- h: the functional g |-> <phi, h g>."""
        return _coeffs(self, self._dual_arrow(_terms(self, a), _terms(self, phi), self.mult_rows))

    def _dual_arrow(self, a, phi, lines):
        """h -> phi (``lines`` mult_cols) or phi <- h (mult_rows) for sparse a and phi, pruned: entry g
        sums a_b <phi, e_g e_b> (or e_b e_g) over b in supp(a), from the cell at g of line b of the index."""
        zero, out = self.field.zero(), {}
        for b, x in a.items():
            for g, cell in lines[b].items():
                out[g] = out.get(g, zero) + x * _paired(cell, phi, zero)
        return _pruned(out)

    # -- dual algebra -----------------------------------------------------------

    @cached_property
    def dual(self):
        return dualize(self)


# ---------------------------------------------------------------------------
# module-level operations


def dualize(h):
    """The dual weak Hopf algebra on H* (transposed structure constants), with S* = S^T.

    H* is a weak Hopf algebra iff H is (Boehm, Nill and Szlachanyi 1999), and
    each axiom of H* is one of H, equation for equation: associativity and
    coassociativity, unit and counit, weak unit and weak counit swap, and
    multiplicativity and each antipode axiom map to themselves.  So the dual
    starts with each kind of h's verdicts that is computed and passes, and
    keeps no reference to h.
    """
    s = h.S
    mult = {}
    for i in range(h.dim):
        for (j, k), c in h.comult[i].items():
            mult.setdefault((j, k), {})[i] = c
    comult = [dict() for _ in range(h.dim)]
    for (i, j), cell in h.mult.items():
        for k, c in cell.items():
            comult[k][(i, j)] = c
    dual = WeakHopfAlgebra(
        h.field,
        [lab + "^" for lab in h.labels],
        mult,
        h.counit,
        comult,
        h.unit,
        antipode=s.transpose(),
        name=h.name + "^*",
    )
    checks = vars(h).get("bialgebra_checks")
    if checks and all(c.ok for c in checks):
        dual.bialgebra_checks, dual.associativity_witness = checks, None
    memo = h._antipode_memo
    if memo is not None and memo[0] is h.antipode and all(c.ok for c in memo[1]):
        dual._antipode_memo = (dual.antipode, memo[1])
    return dual


def counital_maps(h):
    return {"eps_t": h.eps_t_mat, "eps_s": h.eps_s_mat}


def counital_subalgebras(h):
    """Bases, their intersection, H_min, and the central intersections."""
    ht, hs = h.target_base, h.source_base
    out = {
        "Ht": ht,
        "Hs": hs,
        "HtCapHs": ht.intersect(hs),
        "Hmin": h.minimal_subalgebra,
        "ZcapHs": h.center_cap_source,
        "ZcapHt": h.centralizer_in(ht),
    }
    for key, space in out.items():
        if not h.subspace_closed_under_mult(space):
            raise Inconsistent(f"{key} not closed under product")
    return out


def integral_space(h, side="left"):
    """Solve the integral conditions over the basis; returns a Subspace.

    left:  {ell : e_i ell = eps_t(e_i) ell for all i}
    right: {r : r e_i = r eps_s(e_i) for all i}
    Pass ``h.dual`` for the integrals of the dual.  Each call solves the
    system; ``left_integrals`` and ``right_integrals`` cache the result on the
    algebra.
    """
    if side not in ("left", "right"):
        raise InvalidOperand(f"side must be 'left' or 'right', got {side!r}")
    counital = h.eps_t_mat if side == "left" else h.eps_s_mat
    return kernel_on(Subspace.full(h.field, h.dim), _integral_rows(h, side, counital))


def _integral_rows(h, side, counital):
    """Sparse rows of {x : e_i x = E(e_i) x} (left) or {x : x e_i = x E(e_i)} (right).

    E is the matrix ``counital``: eps_t or eps_s for the integrals, eps_t^gamma
    or eps_s^gamma for L_gamma and R_gamma.  The rows for e_i are those of
    L_a (left) or R_a (right) for a = e_i - E(e_i), column i of I - E: row r
    has entry c = the e_r coefficient of e_i e_c - E(e_i) e_c or of
    e_c e_i - e_c E(e_i).
    """
    cols = (Matrix.identity(h.field, h.dim) - counital).transpose().sparse_rows
    return [row for col in cols for row in h._mult_matrix(col, side == "left").sparse_rows]


def _pair_product(rows, p, q, zero):
    """The body of ``mul_pair_dicts`` on the index ``rows``, an algebra's or its image's; not pruned."""
    by_first = {}
    for (c, d), cq in q.items():
        by_first.setdefault(c, []).append((d, cq))
    out = {}
    for (a, b), cp in p.items():
        row_b = rows[b]
        if not row_b:
            continue
        for _c, m1, group in _common(rows[a], by_first):
            for d, cq in group:
                m2 = row_b.get(d)
                if m2 is None:
                    continue
                cc = cp * cq
                for k1, c1 in m1.items():
                    cc1 = cc * c1
                    for k2, c2 in m2.items():
                        key = (k1, k2)
                        out[key] = out.get(key, zero) + cc1 * c2
    return out


def _to_common(d_lhs, d_rhs):
    """(m / d_lhs, m / d_rhs) for m = lcm(d_lhs, d_rhs): what scales each side of an identity to m."""
    g = gcd(d_lhs, d_rhs)
    return d_rhs // g, d_lhs // g


def _join(lines, x, w, zero):
    """sum of x_i w_k times the cell of line i at k, over i in x and k in both line i and w; not pruned.

    x and w are sparse vectors (index -> scalar), and so is the result.  With
    the lines ``mult_rows`` this is the product x w, with ``mult_cols`` it is
    w x.  Line i is joined with w walking the shorter of the two, so the cost
    is the nonzero products e_i e_k with i in supp(x) and k in supp(w).
    """
    out = {}
    keys = w.keys()
    for i, a in x.items():
        line = lines[i]
        # a dict view intersection walks the shorter side
        for k in line.keys() & keys:
            ac = a * w[k]
            for m, cm in line[k].items():
                out[m] = out.get(m, zero) + ac * cm
    return out


def _basis_products(h, terms, left):
    """sum of c e_i x (left) or c x e_i (right) over the terms (c, i, x), x sparse, as a sparse vector, pruned.

    Each product by a basis vector is one ``_join`` of line i of the index,
    row i of ``mult_rows`` (left) or of ``mult_cols`` (right), with x.
    """
    zero = h.field.zero()
    lines = h.mult_rows if left else h.mult_cols
    out = {}
    for c, i, x in terms:
        for m, v in _join(lines, {i: c}, x, zero).items():
            out[m] = out.get(m, zero) + v
    return _pruned(out)


def generating_rows(h, space):
    """Positions G in ``space.rows`` whose right-nested words g_1(g_2(...g_k)) span every row, picked greedily.

    Each row outside the span found so far becomes the next generator, and
    the span is then closed under left multiplication by every generator.
    So G is increasing and row i lies in the span of the words over the
    generators up to i.  Only a span of dimension n stops the scan early:
    one of the dimension of ``space`` need not contain a space that is not
    closed under products.  For the full space G holds basis indices.  This
    costs at most |G| n products, and the span grows one row at a time
    through the forward step of the one eliminator.
    """
    n = h.dim
    field = h.field
    zero = field.zero()
    span = {}
    gens, gen_rows, words, todo = [], [], [], []
    for g, e in enumerate(space.sparse_rows):
        if len(span) == n:
            break
        if _insert(span, e.items(), field) is None:
            continue
        todo += [(e, w) for w in words]
        gens.append(g)
        gen_rows.append(e)
        words.append(e)
        todo += [(x, e) for x in gen_rows]
        while todo and len(span) < n:
            x, w = todo.pop()
            c = _insert(span, _join(h.mult_rows, x, w, zero).items(), field)
            if c is not None:
                # the stored reduced row stands in for the word: the span is the same
                words.append(span[c])
                todo += [(y, span[c]) for y in gen_rows]
    return gens


def _rank_factors(table):
    """E = sum_s u_s (x) v_s for a Matrix E of rank r, returned as (us, vs) of sparse vectors.

    The v_s are the sparse rows of the span of E's rows (the nonzero rows of its rref) and the u_s the
    pivot columns of E, read as rows of E^T, so the u_s and the v_s are each linearly independent.
    """
    span = Subspace._span(table.field, table.ncols, map(dict.items, table.sparse_rows))
    cols = table.transpose().sparse_rows
    return [cols[p] for p in span.pivots], list(span.sparse_rows)


def _associativity(h, rows):
    """First (i, j, l) with (e_i e_j) e_l != e_i (e_j e_l): i in ``rows`` in order, j and l increasing.

    Both sides vanish unless e_j e_l != 0 or e_k e_l != 0 for some k in
    supp(e_i e_j), so for each (i, j) only the l in the keys of row j and
    of the rows k of the index are visited, in increasing order: the first
    witness is that of the scan over every l.  Each side joins a row of the
    index with a cell, so a row i costs the nonzero products of the triples
    it reaches, not n^2 probes of the table.

    The scan reads ``h.image``: both sides are D_m^2 times the field's, for
    D_m the lcm of mult's denominators, with radix bound n phi A_m^2.
    """
    field, mult = h.field, h.image.mult
    radix = field.radix((1, h.dim, mult.a, mult.a))
    mult_rows = mult.at(radix)
    for i in rows:
        row_i = mult_rows[i]
        for j in range(h.dim):
            tij = row_i.get(j, {})
            row_j = mult_rows[j]
            reached = set(row_j)
            for k in tij:
                reached.update(mult_rows[k])
            for l in sorted(reached):
                lhs = {}
                for k, c in tij.items():
                    cell = mult_rows[k].get(l)
                    if cell:
                        for m, c2 in cell.items():
                            lhs[m] = lhs.get(m, 0) + c * c2
                rhs = {}
                for _k, c, cell in _common(row_j.get(l, {}), row_i):
                    for m, c2 in cell.items():
                        rhs[m] = rhs.get(m, 0) + c * c2
                if lhs != rhs and _differ(field, radix, lhs, rhs):
                    return (i, j, l)
    return None


def validate_weak_bialgebra(h):
    """Check associativity, unit, coassociativity, counit, and the weak axioms.

    Verdicts and witnesses are those of a scan over every basis tuple, but
    three checks scan only the rows of a generating set G
    (``generating_rows`` of the full space, at most |G| n left products to find):

    * associativity, on the triples (g, j, l) (``_associativity`` visits
      only the l where a side can be nonzero).  By Light's test,
      {x : (xy)z = x(yz) for all y, z} is a subspace closed under products,
      so it holds on H once it holds on G;
    * comult_multiplicative, on the |G| n pairs (g, j) once H is
      associative, as {x : Delta(xy) = Delta(x)Delta(y) for all y} is then
      closed under products too;
    * coassociativity, on the |G| rows g once both hold, as
      (Delta (x) id)Delta and (id (x) Delta)Delta are then multiplicative
      and their equalizer is closed under products.

    Rows are scanned in order, and e_i lies in the span of the words over
    the generators up to i.  So if every generator row before i passes, row
    i passes: the first failing generator row is the first failing row, and
    its witness is that of the full scan.  When associativity fails,
    multiplicativity scans all n rows (a non-associative H can be
    multiplicative on the rows of G only), and so does coassociativity
    unless both hold.

    The weak axioms factor through a rank (``_rank_factors``, on sparse
    rows).  With Delta(1) = sum_s u_s (x) v_s of rank r, the weak-unit
    products are r^2 pair tensors whose third legs are compared in one
    echelon basis of the v_s, 1 v_s and v_s 1, all sparse.  With
    E2 = eps(e_i e_j) = U V of rank r (V the sparse rows of the span of E2's
    rows, U its pivot columns), the weak-counit tables over (f, t) for each g are
    C_g^T U V, U (V M_g U) V and the same with the legs of Delta(g) swapped,
    where C_g[k][f] is the e_k coefficient of e_f e_g and M_g the matrix of
    Delta(g).  V has full row rank, so the n x r factors are compared instead
    of the n x n tables, at about r (nnz(mult) + nnz(comult)) + n^2 r^2
    products in all; only the first failing row f of the first failing g is
    expanded over t, to report the least (f, g, t).

    Associativity, multiplicativity and coassociativity run on ``h.image``
    (module docstring), each with its own radix.  Associativity compares
    D_m^2 (e_i e_j) e_l with D_m^2 e_i (e_j e_l): N <= n products of m = 2
    mult images per entry, so its bound is n phi A_m^2.  Multiplicativity
    compares D_c D_m times the image of Delta(e_i e_j), n products of a
    mult and a comult image (bound D_c D_m n phi A_m A_c), with the image
    product of Delta(e_i) and Delta(e_j), at most C^2 products of two
    comult and two mult images per entry for C the most terms of one
    Delta(e_k) (bound C^2 phi^3 A_c^2 A_m^2).  Coassociativity compares
    D_c^2 (Delta (x) id)Delta(e_i) with D_c^2 (id (x) Delta)Delta(e_i)
    (bound C phi A_c^2).

    The other four run on images too, each side scaled to the lcm of the two
    scales, with D, A and w (the most terms of a line) of 1, eps and the rank
    factors from their own images.  Unit: D_1 D_m 1 e_i and D_1 D_m e_i 1
    against D_1 D_m e_i (bound w_1 phi A_1 A_m).  Counit: both contractions
    of D_c D_eps Delta(e_i) by eps against D_c D_eps e_i (bound C phi A_c
    A_eps).  Weak unit: D_u D_c D_C (Delta (x) id)Delta(1), C the coordinates
    of the third legs, found on field scalars (bound r w_u phi^2 A_u A_c A_C),
    against both products scaled by D_u^2 D_v D_1 D_m^2 D_C (bound
    r^2 w_u^2 w_v w_1 phi^6 A_u^2 A_v A_1 A_m^2 A_C).  Weak counit: D_m D_U
    C_g^T U (bound n phi A_m A_U) against D_c D_V D_U^2 U W (bound
    r C phi^3 A_U^2 A_c A_V); the first row f that differs is read back and
    expanded over t on field scalars.

    Uncached apart from the cached ``h.generators`` (G) and
    ``h.associativity_witness``: ``validate_full`` reads
    ``h.bialgebra_checks``, which calls this once per algebra.
    """
    n = h.dim
    field = h.field
    zero = field.zero()
    gens = h.generators
    mult, comult = h.image.mult, h.image.comult

    def multiplicativity(rows):
        scale, am, ac = mult.d * comult.d, mult.a, comult.a
        radix = field.radix((scale, n, am, ac), (1, comult.width**2, ac, ac, am, am))
        lines, deltas = mult.at(radix), comult.at(radix)
        for i in rows:
            for j in range(n):
                lhs = {}
                for k, c in lines[i].get(j, {}).items():
                    c *= scale
                    for jk, c2 in deltas[k].items():
                        lhs[jk] = lhs.get(jk, 0) + c * c2
                rhs = _pair_product(lines, deltas[i], deltas[j], 0)
                if lhs != rhs and _differ(field, radix, lhs, rhs):
                    return (i, j)
        return None

    def coassociativity(rows):
        radix = field.radix((1, comult.width, comult.a, comult.a))
        deltas = comult.at(radix)
        for i in rows:
            lhs, rhs = (_comultiplied(deltas, 0, deltas[i], leg) for leg in (0, 1))
            if lhs != rhs and _differ(field, radix, lhs, rhs):
                return (i,)
        return None

    assoc = h.associativity_witness
    multiplicative = multiplicativity(range(n) if assoc else gens)
    coassoc = coassociativity(range(n) if assoc or multiplicative else gens)

    def first_row(radix, want, sides):
        """The first (i,) with a side of row i other than ``want`` e_i, or None."""
        for i in range(n):
            e = {i: want}
            if any(x != e and _differ(field, radix, x, e) for x in sides(i)):
                return (i,)
        return None

    # two-sided unit: the images D_1 D_m 1 e_i and D_1 D_m e_i 1 against D_1 D_m e_i
    unit_terms, one = h.one.terms, _Columns(field, [h.one.terms])
    want = one.d * mult.d
    radix = field.radix((1, one.width, one.a, mult.a), (want, 1, 1))
    rows, (unit_vec,) = mult.at(radix), one.at(radix)
    unit = first_row(radix, want, lambda i: (_join(rows, unit_vec, {i: 1}, 0), _join(rows, {i: 1}, unit_vec, 0)))

    # two-sided counit: both contractions of the image D_c D_eps Delta(e_i) by eps against D_c D_eps e_i
    eps = _Columns(field, [h.eps.terms])
    radix = field.radix((1, comult.width, comult.a, eps.a), (comult.d * eps.d, 1, 1))
    deltas, (counit_vec,) = comult.at(radix), eps.at(radix)
    counit = first_row(
        radix, comult.d * eps.d, lambda i: (_contract_leg(0, [(1, deltas[i])], counit_vec, leg) for leg in (0, 1))
    )

    checks = [
        AxiomCheck("associativity", assoc is None, assoc),
        AxiomCheck("unit", unit is None, unit),
        AxiomCheck("coassociativity", coassoc is None, coassoc),
        AxiomCheck("counit", counit is None, counit),
        AxiomCheck("comult_multiplicative", multiplicative is None, multiplicative),
    ]

    # weak unit axiom (Delta (x) id)Delta(1) = (Delta(1) (x) 1)(1 (x) Delta(1))
    # = (1 (x) Delta(1))(Delta(1) (x) 1).  With Delta(1) = sum_s u_s (x) v_s,
    #   mid = sum_{q,t} (u_q 1) (x) v_q u_t (x) (1 v_t)
    #   alt = sum_{q,t} (1 u_q) (x) u_t v_q (x) (v_t 1)
    # keeping the products by 1, which need not be a unit here.  The sums run on images, and
    # cw[k] holds the coordinates of w_k, the k-th of vs + one_v + v_one, in thirds, over D_C.
    us, vs = _rank_factors(_matrix_of_pairs(h, h.delta_one))
    r = len(vs)
    one_v = [_join(h.mult_rows, unit_terms, v, zero) for v in vs]
    v_one = [_join(h.mult_rows, v, unit_terms, zero) for v in vs]
    thirds = Subspace._span(field, n, map(dict.items, vs + one_v + v_one))
    u, v, c = (_Columns(field, x) for x in (us, vs, [thirds._residue(w.items())[0] for w in vs + one_v + v_one]))
    to_lhs, to_mid = _to_common(u.d * comult.d * c.d, u.d**2 * v.d * one.d * mult.d**2 * c.d)
    products = (to_mid, r * r * u.width**2 * v.width * one.width, u.a, u.a, v.a, one.a, mult.a, mult.a, c.a)
    radix = field.radix((to_lhs, r * u.width, u.a, comult.a, c.a), products)
    rows, deltas, (unit_vec,), us, vs, cw = (x.at(radix) for x in (mult, comult, one, u, v, c))

    def in_thirds(terms, scale):
        """scale times the sum of P (x) w over (P, coordinates of w) in terms, keyed (a, b, beta)."""
        out = {}
        for pair, coords in terms:
            for (a, b), x in pair.items():
                for beta, y in coords:
                    out[a, b, beta] = out.get((a, b, beta), 0) + scale * x * y
        return out

    lhs = in_thirds(
        ((deltas[k], [(b, x * y) for b, y in cw[s].items()]) for s in range(r) for k, x in us[s].items()), to_lhs
    )
    u_one = [_join(rows, x, unit_vec, 0) for x in us]
    one_u = [_join(rows, unit_vec, x, 0) for x in us]
    qt = [(q, t) for t in range(r) for q in range(r)]
    mid = in_thirds(((_pair_of(u_one[q], _join(rows, vs[q], us[t], 0)), cw[r + t].items()) for q, t in qt), to_mid)
    alt = in_thirds(((_pair_of(one_u[q], _join(rows, us[t], vs[q], 0)), cw[2 * r + t].items()) for q, t in qt), to_mid)
    ok = not any(lhs != x and _differ(field, radix, lhs, x) for x in (mid, alt))
    checks.append(AxiomCheck("weak_unit", ok, None if ok else ("Delta(1)",)))

    # weak counit axiom eps((fg)t) = eps(f g_(1)) eps(g_(2) t) = eps(f g_(2)) eps(g_(1) t), through
    # E2 = U V: row f of the image of C_g^T U against row f of U W for W = V M_g U and its swap
    us, vs = _rank_factors(h.counit_product)
    r = len(vs)
    # u_rows[k] maps s to U[k, s] and v_cols[j] maps s to V[s, j], nonzeros only
    u_rows, v_cols = (Matrix._of(field, tuple(m), n).transpose().sparse_rows for m in (us, vs))
    u, v = _Columns(field, u_rows), _Columns(field, v_cols)
    to_lhs, to_mid = _to_common(mult.d * u.d, comult.d * v.d * u.d**2)
    radix = field.radix((to_lhs, n, mult.a, u.a), (to_mid, r * comult.width, u.a, comult.a, v.a, u.a))
    rows, deltas, us, vs = mult.at(radix), comult.at(radix), u.at(radix), v.at(radix)

    def through(w, f):
        """Row f of U w."""
        out = [0] * r
        for s, x in us[f].items():
            for s2, y in enumerate(w[s]):
                if y:
                    out[s2] += x * y
        return out

    differ = lambda x, y: x != y and _differ(field, radix, dict(enumerate(x)), dict(enumerate(y)))
    witness = None
    for g in range(n):
        lhs = {}
        for f in range(n):
            if cell := rows[f].get(g):
                row = lhs[f] = [0] * r
                for k, c in cell.items():
                    c *= to_lhs
                    for s, x in us[k].items():
                        row[s] += c * x
        mid = [[0] * r for _ in range(r)]
        alt = [[0] * r for _ in range(r)]
        for (j, k), c in deltas[g].items():
            c *= to_mid
            for w, a, b in ((mid, j, k), (alt, k, j)):
                for s, x in vs[a].items():
                    cx, ws = c * x, w[s]
                    for s2, y in us[b].items():
                        ws[s2] += cx * y
        for f in range(n):
            sides = (lhs.get(f, [0] * r), through(mid, f), through(alt, f))
            if differ(sides[0], sides[1]) or differ(sides[0], sides[2]):
                # V has full row rank, so the rows differ at some t: read them back and expand over t
                read = [[field.from_image(y, mult.d * u.d * to_lhs, radix) for y in row] for row in sides]
                entries = [
                    [sum((row[s] * x for s, x in v_cols[t].items() if row[s]), zero) for row in read]
                    for t in range(n)
                ]
                t = next(t for t, (a, b, c) in enumerate(entries) if not (a == b == c))
                witness = (f, g, t)
                break
        if witness:
            break
    checks.append(AxiomCheck("weak_counit", witness is None, witness))

    return ValidationReport(checks)


def antipode_axiom_checks(h, s=None):
    """The three antipode axioms for S = ``s``, or for the stored S when ``s`` is None.

    Uncached: ``validate_full`` and ``solve_antipode`` read the checks
    through ``h.antipode_checks(s)``, which keeps them for the last S.

    Each axiom compares sum c x_j y_k over Delta(e_i) = sum c e_j (x) e_k
    with column i of a matrix E, where x_j and y_k are basis vectors or
    columns of S and eps_s.  The products x_j y_k join row a of the index,
    for each a in supp(x_j), with the nonzeros of y_k, and accumulate
    sparsely.

    The scans read each operand as a ``_Columns`` (module docstring): mult,
    comult, eps_t and eps_s from ``h.image``, and S, which varies from call
    to call, and the identity made per call.  With D_x, D_y and D_E the lcms
    of the denominators of the x's, the y's and E, the sum is L = D_c D_x
    D_y D_m times the scalar one, so with g = gcd(L, D_E) a scan compares
    D_E / g times the summed images with L / g times the image of column i
    of E.  An entry of the sum has at most N = C w_x w_y products of four
    images, for C the most terms of one Delta(e_i) and w the most nonzeros
    of one column, so the bounds of the two sides are (D_E / g) N phi^3 A_c
    A_x A_y A_m and (L / g) A_E.
    """
    field = h.field
    im = h.image

    def first_failure(left, right, expect):
        factors = (im.comult, left, right, im.mult)
        scale = prod(f.d for f in factors)
        s_acc, s_expect = _to_common(scale, expect.d)
        width = prod(f.width for f in factors[:3])
        radix = field.radix((s_acc, width, *(f.a for f in factors)), (s_expect, 1, expect.a))
        deltas, left, right, rows = (f.at(radix) for f in factors)
        for i, want in enumerate(expect.at(radix)):
            acc = {}
            for (j, k), c in deltas[i].items():
                c *= s_acc
                for a, x in left[j].items():
                    cx = c * x
                    for _b, cell, y in _common(rows[a], right[k]):
                        cxy = cx * y
                        for p, cm in cell.items():
                            acc[p] = acc.get(p, 0) + cxy * cm
            if s_expect != 1:
                want = {p: v * s_expect for p, v in want.items()}
            if acc != want and _differ(field, radix, acc, want):
                return (i,)
        return None

    eps_t, eps_s = im.counital(h)
    basis = _Columns(field, [{i: field.one()} for i in range(h.dim)])
    s_cols = _Columns(field, (h.S if s is None else s).transpose().sparse_rows)
    witness = first_failure(basis, s_cols, eps_t)
    checks = [AxiomCheck("antipode_target", witness is None, witness)]
    witness = first_failure(s_cols, basis, eps_s)
    checks.append(AxiomCheck("antipode_source", witness is None, witness))
    # S(h_(1)) h_(2) S(h_(3)) = S(h).  Under the source axiom the inner part
    # m(S (x) id) Delta(e_j) collapses to eps_s(e_j), so the triple sum folds.
    witness = first_failure(eps_s, s_cols, s_cols)
    checks.append(AxiomCheck("antipode_composite", witness is None, witness))
    return checks


def validate_full(h):
    """Weak bialgebra axioms plus antipode axioms (when S is present), as a new report.

    The bialgebra checks are computed once per algebra and the antipode
    checks once per S (``h.bialgebra_checks``, ``h.antipode_checks``); each
    call returns a report with its own list of the shared, frozen checks.
    """
    checks = list(h.bialgebra_checks)
    if h.antipode is not None:
        checks += h.antipode_checks(h.antipode)
    return ValidationReport(checks)


def _antipode_rows(h, left, image=None, source=False):
    """The (row, right-hand side) pairs of the target and then the composite axiom, or of the
    source axiom, n per e_i, made as they are read; S[m, k] is column m * n + k.  ``left`` keeps
    the nonzeros of each L(eps_s(e_j)) in row-major order.  With ``image``, an embedding into
    F_p, each scalar is read through it: the entries are ints congruent to the field's mod p."""
    n, kept, read = h.dim, int(source), image or (lambda x: x)
    zero, one = (0, 1) if image else (h.field.zero(), h.field.one())
    comult = [{legs: read(c) for legs, c in d.items()} for d in h.comult]
    # products[x]: (p, m n, c) for each e_x e_m (target) or e_m e_x (source) with c at e_p
    lines = h.mult_cols if source else h.mult_rows
    products = [[(p, m * n, read(c)) for m, cell in line.items() for p, c in cell.items()] for line in lines]
    mapped, eps_s_cols = {}, h.eps_s_mat.transpose().sparse_rows

    def left_entries(j):
        if (entries := mapped.get(j)) is None:
            if j not in left:
                rows_j = h._mult_matrix(eps_s_cols[j], True).sparse_rows
                left[j] = [(p, q * n, v) for p, row in enumerate(rows_j) for q, v in sorted(row.items())]
            entries = mapped[j] = [(p, qn, read(v)) for p, qn, v in left[j]]
        return entries

    # m(id (x) S) Delta(e_i) = eps_t(e_i), then eps_s(e_i_(1)) S(e_i_(2)) - S(e_i) = 0; or
    # m(S (x) id) Delta(e_i) = eps_s(e_i)
    counital = (h.eps_s_mat if source else h.eps_t_mat).transpose().sparse_rows
    for entries, cols in [(products.__getitem__, counital)] + ([] if source else [(left_entries, None)]):
        for i in range(n):
            coeffs = {}
            for legs, c in comult[i].items():
                k = legs[1 - kept]
                for p, qn, v in entries(legs[kept]):
                    key = (p, qn + k)
                    coeffs[key] = coeffs.get(key, zero) + c * v
            if cols is None:
                for p in range(n):
                    key = (p, p * n + i)
                    coeffs[key] = coeffs.get(key, zero) - one
            per_p, rhs = {}, [zero] * n
            for (p, unk), v in coeffs.items():
                if v:
                    per_p.setdefault(p, {})[unk] = v
            for p, x in (cols[i] if cols else {}).items():
                rhs[p] = read(x)
            yield from zip([per_p.get(p, {}) for p in range(n)], rhs)


def solve_antipode(h):
    """Solve the antipode axioms for S as a sparse linear system.

    In the convolution algebra of endomorphisms the axioms read id*S = eps_t,
    S*id = eps_s, and S*id*S = S.  Given the second, associativity of
    convolution rewrites the composite axiom as the *linear* condition
    eps_s * S = S.  The target and composite rows alone fix S: an antipode
    satisfies S * eps_t = S, so any T with id*T = eps_t and eps_s*T = T is
    T = eps_s*T = S*id*T = S*eps_t = S.  Only those 2n^2 rows are eliminated,
    and the source rows S*id = eps_s are left to ``antipode_axiom_checks``,
    whose ``antipode_source`` check is exactly those rows: if it fails, the
    joint system of all three families is inconsistent.

    They are first solved mod a word-size prime p (``_solve_modular``).  If
    n^2 of them pivot mod p, their rank over the field is n^2 too, so a
    lifted S that passes ``antipode_target`` and ``antipode_composite``, the
    exact checks of exactly these rows, is their one solution.  Else (p
    divides a denominator, fewer pivots, a failed lift or check) they are
    eliminated exactly; if that leaves a kernel (h is not a weak bialgebra,
    or has no antipode), the source rows are appended and the joint system
    is solved again: a positive-dimensional solution raises NotUnique.

    The final check is ``h.antipode_checks(s)``: it reads h's structure
    with the solved S directly, and stays on h, so a caller that then sets
    ``h.antipode`` to this S, or builds ``h.with_antipode(s)``, validates
    without checking the antipode axioms again.
    """
    n, field = h.dim, h.field
    left = {}
    def square(x):  # the n^2 unknowns, row by row
        rows = [{} for _ in range(n)]
        for k, v in x.items():
            rows[k // n][k % n] = v
        return Matrix._sums(field, rows, n)
    s = _solve_modular(lambda image: _antipode_rows(h, left, image), n * n, field)
    if s is not None:
        s = square(s)
        target, _, composite = h.antipode_checks(s)
        s = s if target.ok and composite.ok else None
    if s is None:
        system = list(_antipode_rows(h, left))
        got = solve_sparse(*zip(*system), n * n, field)
        if got is not None and got[1]:
            got = solve_sparse(*zip(*system, *_antipode_rows(h, left, source=True)), n * n, field)
        if got is None:
            raise NoAntipode("antipode equations are inconsistent")
        particular, kern = got
        if kern:
            raise NotUnique(f"antipode solution space has dimension {len(kern)}")
        s = square(particular)
    for check in h.antipode_checks(s):
        if not check.ok:
            if check.name == "antipode_source":
                raise NoAntipode("antipode equations are inconsistent")
            raise Axiom26Failure(f"solved antipode fails {check.name} at {check.witness}")
    return s


@dataclass
class MinimalData:
    """Classifying data of the minimal weak Hopf subalgebra."""

    target: Subspace  # H_t
    core: Subspace  # H_t cap H_s
    g: Element  # invertible g in H_t with eps(b) = Tr_reg(g^{-1} b) on H_t


def regular_trace_on(h, space, x):
    """Trace of left multiplication by the vector x of h on an invariant subspace."""
    xs, zero = Element(h, x).terms, h.field.zero()
    mat = space._matrix_of(_join(h.mult_rows, xs, b, zero).items() for b in space.sparse_rows)
    if mat is None:
        raise Inconsistent("subspace not invariant under left multiplication")
    return mat.trace()


def minimal_data(h):
    """Recover (H_t, H_t cap H_s, g) with eps|_{H_t} = Tr_reg(g^{-1} . )."""
    ht = h.target_base
    field = h.field
    # Solve Tr_reg(u b_i) = eps(b_i) for u = sum_a u_a v_a in H_t, v_a its echelon basis: row i of the
    # Gram matrix holds Tr_reg(v_a b_i) at a.
    basis = [Element._of(h, row) for row in ht.sparse_rows]
    gram = [{a: regular_trace_on(h, ht, p) for a, v in enumerate(basis) if (p := v * b)} for b in basis]
    sol = _solve(Matrix._sums(field, gram, len(basis)), _coerced(field, {i: h.eps(b) for i, b in enumerate(basis)}))
    if sol is None or sol[1].dim:
        raise Degenerate("counit restricted to H_t is degenerate")
    g = h._inverse(ht._combine(sol[0].items()))
    if not ht._has(g):
        raise Degenerate("inverse of g^{-1} left H_t")
    return MinimalData(target=ht, core=ht.intersect(h.source_base), g=Element._of(h, g))
