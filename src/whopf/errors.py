"""Exception hierarchy shared by all whopf modules."""


class WhopfError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatch(WhopfError):
    """Operands belong to different base fields."""


class ParseError(WhopfError):
    """Scalar or document text does not match the grammar."""


class NoSolution(WhopfError):
    """Linear system is inconsistent."""


class InvalidOperand(WhopfError):
    """A matrix or subspace operand has a shape (or exponent) the operation cannot take."""


class Singular(WhopfError):
    """Matrix is not invertible."""


class NoAntipode(WhopfError):
    """The antipode equations have no solution."""


class NotUnique(WhopfError):
    """The antipode equations have a positive-dimensional solution space."""


class Axiom26Failure(WhopfError):
    """A solved antipode fails S(h1) h2 S(h3) = S(h)."""


class NotInvertible(WhopfError):
    """Element has no two-sided inverse."""


class NoAntipodeInverse(WhopfError):
    """Antipode matrix is singular."""


class Degenerate(WhopfError):
    """Counit restricted to the target base is degenerate (corrupt input)."""


class InvalidPresentation(WhopfError):
    """Groupoid or algebra presentation violates its axioms."""


class TraceConditionViolated(WhopfError):
    """Blockwise trace of g does not match the block size."""


class NotSeparable(WhopfError):
    """No separability element (cannot happen for split semisimple input)."""


class NotFrobenius(WhopfError):
    """No non-degenerate integral exists (dim of integral space != dim H_t)."""


class Inconsistent(WhopfError):
    """Internal cross-check failed; indicates a bug upstream."""


class Mismatch(WhopfError):
    """Two routes to the same object disagree."""


class RegularityViolated(WhopfError):
    """S^2 is not the identity on the minimal weak Hopf subalgebra."""


class NotHalfGrouplike(WhopfError):
    """Functional fails the one-sided group-like factorization."""


class Undecidable(WhopfError):
    """Search space too large to decide invertibility honestly."""


class NonSplit(WhopfError):
    """A minimal polynomial has no root in the base field."""


class PreconditionUnmet(WhopfError):
    """A stated precondition fails; message carries the residual."""


class NotATwist(WhopfError):
    """Twist pair violates one of its defining identities."""


class VNotInvertible(WhopfError):
    """The canonical element v of a twist is not invertible."""


class DynamicalEquationViolated(WhopfError):
    """The shifted cocycle equation fails for some character."""


class FieldTooSmall(WhopfError):
    """Base field lacks the roots of unity required by the construction."""
