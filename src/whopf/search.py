"""Deterministic, seedless search over integer coefficient vectors.

Witness searches (non-degenerate integrals, invertible elements of a
solution subspace) enumerate integer vectors by increasing max-norm with
heights 1, 2, 4, ...; within a height the coordinate order is
0, 1, -1, 2, -2, ... lexicographically.  The order is fixed so that every
output of the package is reproducible.  The height cap honored by the
bounded searches is WHOPF_MAX_HEIGHT (default 8).  Every search is
``first(h, space, coeff_vectors, accept)``: the caller gives the enumeration
of coefficient vectors over the basis of ``space`` and the witness test.

When enumeration fails, invertibility over a subspace is decided exactly:
the determinant of the generic left-multiplication matrix is a polynomial of
degree <= n in each coordinate, so evaluating it on a (n+1)^d integer grid
decides identical vanishing; a non-vanishing grid point doubles as a
witness.  Grids too large to afford raise Undecidable rather than guess.
"""

from __future__ import annotations

import os
from itertools import chain, product

from .errors import InvalidOperand, Undecidable
from .linalg import _size
from .wha import Element

__all__ = ["first", "grid_vectors", "height_vectors", "invertible_in", "max_height"]

_GRID_CAP = 200_000


def max_height(default=8):
    value = os.environ.get("WHOPF_MAX_HEIGHT", "")
    try:
        return max(1, int(value))
    except ValueError:
        return default


def _heights(cap):
    height = 1
    while height <= cap:
        yield height
        height *= 2


def _coordinate_order(height):
    out = [0]
    for k in range(1, height + 1):
        out.extend((k, -k))
    return out


def height_vectors(dim, max_height=8):
    """Nonzero integer vectors by exact max-norm 1, 2, 4, ... <= max_height; InvalidOperand for a bad dim or cap."""
    if _size(max_height, "height cap") < 1:
        raise InvalidOperand(f"height cap {max_height!r} is not an int of at least 1")
    if _size(dim, "dimension") == 0:
        return
    for height in _heights(max_height):
        coords = _coordinate_order(height)
        for vec in product(coords, repeat=dim):
            if max(abs(c) for c in vec) == height:
                yield vec


def grid_vectors(degree, dim):
    """All of {0, ..., degree}^dim in lexicographic order.

    A polynomial of degree <= ``degree`` in each of ``dim`` coordinates that
    vanishes on this grid is identically zero (Schwartz 1980, Zippel 1979).
    A grid over the cap, or a degree or dim that is not an int of at least 0,
    raises when the generator is first advanced, so a hit found before it is
    still returned.
    """
    grid = _size(degree, "degree") + 1
    if grid ** _size(dim, "dimension") > _GRID_CAP:
        raise Undecidable(f"grid of size {grid}^{dim} exceeds the cap")
    yield from product(range(grid), repeat=dim)


def first(h, space, coeff_vectors, accept, skip=0):
    """The (skip+1)-th truthy ``accept(v)``, v the Element sum_k c_k rows[k] of h, over ``coeff_vectors`` c, or None.

    InvalidOperand unless ``skip`` is an int (not a bool) of at least 0: any other skip would never reach 0.
    """
    _size(skip, "skip")
    for coeffs in coeff_vectors:
        got = accept(Element._of(h, space._combine(enumerate(coeffs))))
        if got:
            if not skip:
                return got
            skip -= 1
    return None


def invertible_in(h, space):
    """An invertible Element of ``space``, or None when there is none."""
    vectors = chain(height_vectors(space.dim, max_height=max_height()), grid_vectors(h.dim, space.dim))
    return first(h, space, vectors, lambda v: v.is_invertible() and v)
