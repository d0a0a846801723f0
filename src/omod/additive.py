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

    @property
    def degree(self):
        return self.q ** self.qdegree

    def is_separable(self):
        return self.coeffs[0].is_known_nonzero()

    def linear_coefficient(self):
        return self.coeffs[0]

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

    def __add__(self, other):
        if self.field is not other.field or self.qexp != other.qexp:
            raise MixedFields("additive polynomials over different structures")
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.field.zero()
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else zero
            b = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(a + b)
        while len(out) > 1 and out[-1].is_zero_mod_precision() and out[-1].precision is None:
            out.pop()
        return AdditivePolynomial(self.field, tuple(out), self.qexp)

    def scale(self, c: LocalFieldElement):
        """Left-multiply by a constant series: c * P(T)."""
        return AdditivePolynomial(self.field, tuple(c * a for a in self.coeffs), self.qexp)

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

    def to_dense_coeffs(self):
        """Plain T-power coefficient list [a_0, a_1, ..., a_deg]."""
        zero = self.field.zero()
        out = [zero] * (self.degree + 1)
        for i, c in enumerate(self.coeffs):
            out[self.q ** i] = c
        return out

    def newton_polygon_of_roots(self, rhs=None):
        """Polygon of P(T) - rhs as a plain polynomial in T."""
        pts = []
        if rhs is not None and not rhs.is_zero_mod_precision():
            pts.append((0, rhs.valuation() * self.field.absolute_ramification))
        for i, c in enumerate(self.coeffs):
            if c.is_known_nonzero():
                pts.append((self.q ** i, c.order()))
        return newton_polygon(pts)

    def right_divide(self, inner):
        """Solve self = Q o inner for an additive Q; exact when inner's root
        space is contained in self's.  Raises when division leaves a remainder
        visibly nonzero at working precision."""
        if self.field is not inner.field or self.qexp != inner.qexp:
            raise MixedFields("additive polynomials over different structures")
        rem = list(self.coeffs)
        dl = inner.qdegree
        lead = inner.coeffs[-1]
        qcoeffs = [self.field.zero()] * (len(rem) - 1 - dl + 1)
        for k in range(len(rem) - 1 - dl, -1, -1):
            top = rem[k + dl]
            qk = top / lead.frobenius_power(self.qexp * k)
            qcoeffs[k] = qk
            for j, d in enumerate(inner.coeffs):
                rem[k + j] = rem[k + j] - qk * d.frobenius_power(self.qexp * k)
        for r in rem:
            if r.is_known_nonzero():
                raise ValueError("right division leaves remainder %r" % (r,))
        return AdditivePolynomial(self.field, tuple(qcoeffs), self.qexp)

    def additivity_witness(self, pairs):
        """Check P(x + y) = P(x) + P(y) on sample pairs; returns a failing pair
        or None."""
        for x, y in pairs:
            left = self(x + y)
            right = self(x) + self(y)
            if not left.agrees(right):
                return (x, y)
        return None

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero_mod_precision() and c.precision is None:
                continue
            parts.append("(%r)*T^%d" % (c, self.q ** i))
        return " + ".join(parts) if parts else "0"


def require_separable(P: AdditivePolynomial):
    if not P.is_separable():
        raise InseparablePolynomial("linear coefficient is zero (or not known nonzero)")
