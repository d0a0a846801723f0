"""F_q-linear (additive) polynomials sum c_i T^(q^i) over a local field.

These are the polynomials through which all torsion computations run: they
are closed under composition, their root sets are F_q-vector spaces, and
their formal derivative is the constant c_0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InseparablePolynomial, MixedFields
from .newton import newton_polygon
from .series import LocalFieldElement, LocalFieldSpec


@dataclass(frozen=True)
class AdditivePolynomial:
    """sum_i coeffs[i] * T^(q^i), with q = p^qexp the linearity field order."""

    field: LocalFieldSpec
    coeffs: tuple  # LocalFieldElement entries c_0 .. c_d
    qexp: int      # q = p^qexp

    def __post_init__(self):
        for c in self.coeffs:
            if c.field is not self.field:
                raise MixedFields("coefficient field mismatch")
        if not self.coeffs:
            raise ValueError("need at least one coefficient")
        # the zero map is allowed as the single-coefficient zero polynomial
        if len(self.coeffs) > 1 and self.coeffs[-1].is_zero_mod_precision():
            raise ValueError("leading coefficient must be nonzero")

    @property
    def q(self):
        return self.field.residue.p ** self.qexp

    @property
    def qdegree(self):
        return len(self.coeffs) - 1

    def __call__(self, x: LocalFieldElement) -> LocalFieldElement:
        """Evaluate at a series.  q-power maps are exact in characteristic p,
        so precision loss comes only from coefficient multiplication."""
        if x.field is not self.field:
            raise MixedFields("argument lives in %r, polynomial over %r"
                              % (x.field, self.field))
        acc = self.field.zero()
        for i, c in enumerate(self.coeffs):
            if c.is_zero_mod_precision() and c.precision is None:
                continue
            acc = acc + c * x.frobenius_power(self.qexp * i)
        return acc

    def compose(self, other):
        """self(other(T)): coefficient at q^(i+j) picks up c_i * d_j^(q^i)."""
        if self.field is not other.field or self.qexp != other.qexp:
            raise MixedFields("additive polynomials over different structures")
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c.is_zero_mod_precision() and c.precision is None:
                continue
            for j, d in enumerate(other.coeffs):
                if d.is_zero_mod_precision() and d.precision is None:
                    continue
                out[i + j] = out[i + j] + c * d.frobenius_power(self.qexp * i)
        return AdditivePolynomial(self.field, tuple(out), self.qexp)

    def newton_polygon_of_roots(self):
        """Polygon of P(T) as a plain polynomial in T."""
        return newton_polygon([(self.q ** i, c.order()) for i, c in enumerate(self.coeffs)
                               if c.is_known_nonzero()])

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero_mod_precision() and c.precision is None:
                continue
            parts.append("(%r)*T^%d" % (c, self.q ** i))
        return " + ".join(parts) if parts else "0"


def require_separable(P: AdditivePolynomial):
    if not P.coeffs[0].is_known_nonzero():
        raise InseparablePolynomial("linear coefficient is zero (or not known nonzero)")
