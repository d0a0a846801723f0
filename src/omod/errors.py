"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
they all derive from OmodError so blanket handling stays possible.
"""


class OmodError(Exception):
    """Base class for all package errors."""


class MixedFields(OmodError):
    """Operands belong to different field specs."""


class IndexOutOfRange(OmodError, ValueError):
    """A coefficient index lies outside the range a construction accepts."""


class CapExceeded(OmodError):
    """A size cap (residue cardinality, degree, enumeration) would be exceeded."""


class DivisionByUncertainZero(OmodError):
    """Divisor is zero modulo its precision, so it cannot be inverted."""


class UncertainValuation(OmodError):
    """Element is zero modulo its precision; only a valuation lower bound exists."""


class DegeneratePolynomial(OmodError):
    """Fewer than two finite-valuation coefficients; no Newton polygon."""


class PrecisionExhausted(OmodError):
    """An operation lost every significant term, or needs more input precision."""


class NoConvergence(OmodError):
    """Fixed-point or Newton iteration failed to gain valuation within its cap."""


class NotInTower(OmodError):
    """Embedding target's base chain does not pass through the source field."""


class InseparablePolynomial(OmodError):
    """Additive polynomial with zero linear coefficient; roots are not simple."""


class ExtensionRequired(OmodError):
    """Roots exist only in a proper extension of the given field.

    Carries the Newton polygon of the unsolved part and any roots already
    found in the field.
    """

    def __init__(self, polygon, roots_found=(), message=""):
        super().__init__(message or "roots lie outside the field")
        self.polygon = polygon
        self.roots_found = list(roots_found)


class StructureViolation(OmodError):
    """A point set failed a module-structure law; carries a witness."""


class ValuationMismatch(OmodError):
    """A computed valuation differs from the expected exact rational."""


class OrbitNotFree(OmodError):
    """Unit-group orbit on primitive vectors has a nontrivial stabilizer."""


class CharacterViolation(OmodError):
    """A torsion substitution failed the character law; carries a witness."""


class DeterminantMismatch(OmodError):
    """Norm-compatibility of the torsion action failed for some unit."""


class NotInvertible(OmodError):
    """Matrix over the truncated ring has non-unit determinant."""


class NotAUnit(OmodError):
    """Element of the division-algebra order has non-unit leading coefficient."""


class FrobeniusInvarianceViolation(OmodError):
    """Internal consistency failure: a reduced norm left the fixed subring."""


class NotASummand(OmodError):
    """A kernel submodule admits no complement basis."""


class SchemaMismatch(OmodError):
    """Report documents disagree on schema or carry conflicting duplicates, or
    a tower cache file is unreadable, incomplete or holds another key."""
