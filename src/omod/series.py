"""Precision-tracked Laurent series over finite residue fields.

An element is a window of known coefficients starting at its leading exponent,
together with a truncation order: the element is known modulo u^precision.
precision None means the element is exact (a Laurent polynomial).  "Zero
modulo u^N" is kept distinct from exact zero: its valuation is only bounded
below, never reported as an exact number.

Every operation computes the exact propagated precision; nothing is truncated
silently.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
import math

from .errors import (DivisionByUncertainZero, MixedFields, NotInTower,
                     PrecisionExhausted, UncertainValuation)
from .finitefield import FieldSpec, FqElement, GF, embed_fq


@dataclass(frozen=True)
class FqEmbedding:
    """Canonical residue-field embedding, applied to series coefficients."""

    src: FieldSpec
    dst: FieldSpec

    def __call__(self, a: FqElement) -> FqElement:
        return embed_fq(a, self.dst)


@dataclass(eq=False)
class BaseEmbedding:
    """How a base field sits inside an extension.

    image_of_base_uniformizer is a series in the extension's uniformizer with
    valuation equal to the ramification index; coefficient_embedding moves
    residue-field constants.
    """

    image_of_base_uniformizer: "LocalFieldElement"
    coefficient_embedding: FqEmbedding


@dataclass(eq=False)
class LocalFieldSpec:
    """A local field F_{q'}((u)) presented over an optional base field.

    Specs are identity-compared: two builds of "the same" extension are
    distinct specs, and mixing their elements raises MixedFields.  Extensions
    carry a BaseEmbedding attached at the end of their construction; they are
    immutable afterwards.
    """

    residue: FieldSpec
    uniformizer: str
    ramification_index: int = 1
    residue_degree: int = 1
    base: "LocalFieldSpec | None" = None
    default_precision: int = 64
    embedding: BaseEmbedding | None = dc_field(default=None, repr=False)

    @property
    def q(self):
        return self.residue.q

    def chain(self):
        """Field specs from the root down to this one."""
        out = []
        spec = self
        while spec is not None:
            out.append(spec)
            spec = spec.base
        return list(reversed(out))

    @property
    def root(self):
        spec = self
        while spec.base is not None:
            spec = spec.base
        return spec

    @property
    def absolute_ramification(self):
        e = 1
        spec = self
        while spec.base is not None:
            e *= spec.ramification_index
            spec = spec.base
        return e

    def degree_over(self, other):
        d = 1
        spec = self
        while spec is not other:
            if spec.base is None:
                raise NotInTower("%r is not below %r" % (other, self))
            d *= spec.ramification_index * spec.residue_degree
            spec = spec.base
        return d

    # --- element constructors -------------------------------------------------

    def element(self, leading_exponent, coeffs, precision=None):
        return make_element(self, leading_exponent, coeffs, precision)

    def zero(self, precision=None):
        return LocalFieldElement(self, 0, (), precision)

    def one(self):
        return self.constant(self.residue.one())

    def constant(self, c: FqElement):
        if c.spec != self.residue:
            raise MixedFields("constant %r is not in the residue field %r" % (c, self.residue))
        return make_element(self, 0, (c,), None)

    def uniformizer_elt(self, power=1):
        return make_element(self, power, (self.residue.one(),), None)

    def from_int_poly(self, pairs, precision=None):
        """Element from {exponent: residue-integer} data."""
        if not pairs:
            return self.zero(precision)
        lo = min(pairs)
        hi = max(pairs)
        coeffs = [self.residue.from_int(pairs.get(k, 0)) for k in range(lo, hi + 1)]
        return make_element(self, lo, tuple(coeffs), precision)

    def __repr__(self):
        return "%r((%s))" % (self.residue, self.uniformizer)


def base_field(p, f=1, precision=64, uniformizer="t"):
    """Fresh root field F_{p^f}((t)).  Distinct calls give distinct specs."""
    return LocalFieldSpec(GF(p, f), uniformizer, default_precision=precision)


def make_element(field, e0, coeffs, precision):
    """Normalize: strip zero coefficients at both ends, clamp to precision."""
    coeffs = list(coeffs)
    if precision is not None:
        # drop stored coefficients at or beyond the truncation order
        keep = precision - e0
        if keep < len(coeffs):
            coeffs = coeffs[: max(keep, 0)]
    while coeffs and coeffs[0].is_zero():
        coeffs.pop(0)
        e0 += 1
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        return LocalFieldElement(field, 0, (), precision)
    return LocalFieldElement(field, e0, tuple(coeffs), precision)


@dataclass(frozen=True)
class LocalFieldElement:
    """Laurent series known modulo u^precision (None = exact)."""

    field: LocalFieldSpec
    leading_exponent: int
    coeffs: tuple  # FqElement entries; coeffs[0] != 0 unless the element is zero
    precision: int | None = None

    # --- basic queries ----------------------------------------------------------

    def is_exact(self):
        return self.precision is None

    def is_known_nonzero(self):
        return bool(self.coeffs)

    def is_exact_zero(self):
        return not self.coeffs and self.precision is None

    def is_zero_mod_precision(self):
        return not self.coeffs

    def order_lower_bound(self):
        """u-adic order lower bound; always available."""
        if self.coeffs:
            return self.leading_exponent
        return math.inf if self.precision is None else self.precision

    def order(self):
        """Exact u-adic order.  Raises UncertainValuation for uncertain zeros."""
        if self.coeffs:
            return self.leading_exponent
        if self.precision is None:
            return math.inf
        raise UncertainValuation(
            "element is zero modulo u^%d; valuation only bounded below" % self.precision)

    def valuation(self):
        """Exact valuation normalized so the root uniformizer has valuation 1."""
        o = self.order()
        if o is math.inf:
            return math.inf
        return Fraction(o, self.field.absolute_ramification)

    def valuation_lower_bound(self):
        o = self.order_lower_bound()
        if o is math.inf:
            return math.inf
        return Fraction(o, self.field.absolute_ramification)

    def leading_coeff(self):
        if not self.coeffs:
            raise UncertainValuation("no known nonzero term")
        return self.coeffs[0]

    def coeff_at(self, k):
        """Coefficient of u^k; raises PrecisionExhausted if unknown."""
        if self.precision is not None and k >= self.precision:
            raise PrecisionExhausted("coefficient of u^%d unknown (precision %d)"
                                     % (k, self.precision))
        i = k - self.leading_exponent
        if not self.coeffs or i < 0 or i >= len(self.coeffs):
            return self.field.residue.zero()
        return self.coeffs[i]

    def _check(self, other):
        if self.field is not other.field:
            raise MixedFields("elements of %r and %r are not comparable"
                              % (self.field, other.field))

    # --- ring operations ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        prec = _min_prec(self.precision, other.precision)
        if not self.coeffs:
            return make_element(other.field, other.leading_exponent, other.coeffs, prec)
        if not other.coeffs:
            return make_element(self.field, self.leading_exponent, self.coeffs, prec)
        lo = min(self.leading_exponent, other.leading_exponent)
        hi = max(self.leading_exponent + len(self.coeffs),
                 other.leading_exponent + len(other.coeffs))
        zero = self.field.residue.zero()
        out = [zero] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.leading_exponent - lo + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.leading_exponent - lo + i
            out[j] = out[j] + c
        return make_element(self.field, lo, out, prec)

    def __neg__(self):
        return LocalFieldElement(self.field, self.leading_exponent,
                                 tuple(-c for c in self.coeffs), self.precision)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        prec = _mul_prec(self, other)
        if not self.coeffs or not other.coeffs:
            return LocalFieldElement(self.field, 0, (), prec)
        zero = self.field.residue.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return make_element(self.field, self.leading_exponent + other.leading_exponent,
                            out, prec)

    def scale(self, c: FqElement):
        """Multiply by a residue constant."""
        if c.is_zero():
            return LocalFieldElement(self.field, 0, (), self.precision)
        return make_element(self.field, self.leading_exponent,
                            tuple(a * c for a in self.coeffs), self.precision)

    def shift(self, k):
        """Multiply by u^k."""
        prec = None if self.precision is None else self.precision + k
        return LocalFieldElement(self.field, self.leading_exponent + k, self.coeffs, prec)

    def inv(self, precision=None):
        """Multiplicative inverse.

        For an exact non-monomial input the reciprocal is an infinite series;
        it is returned at the requested precision (default: the field's
        working precision), and the result's precision field records that.
        """
        if not self.coeffs:
            if self.precision is None:
                raise ZeroDivisionError("inverse of exact zero")
            raise DivisionByUncertainZero(
                "divisor is zero modulo u^%d" % self.precision)
        v = self.leading_exponent
        if self.precision is None:
            if len(self.coeffs) == 1 and precision is None:
                return make_element(self.field, -v, (self.coeffs[0].inv(),), None)
            nterms = (precision + v) if precision is not None else self.field.default_precision
            out_prec = -v + nterms
        else:
            out_prec = self.precision - 2 * v
            if precision is not None:
                out_prec = min(out_prec, precision)
            nterms = out_prec + v
        nterms = max(nterms, 1)
        a = [self.coeff_at(v + i) for i in range(nterms)]
        b0 = a[0].inv()
        out = [b0] + [self.field.residue.zero()] * (nterms - 1)
        for k in range(1, nterms):
            acc = self.field.residue.zero()
            for j in range(1, k + 1):
                acc = acc + a[j] * out[k - j]
            out[k] = -(b0 * acc)
        return make_element(self.field, -v, out, out_prec)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        r = self.one_like()
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def one_like(self):
        return self.field.one()

    def frobenius_power(self, j):
        """x -> x^(p^j), exact in characteristic p: coefficients to the p^j,
        exponents times p^j.  Precision scales by p^j as well."""
        if j == 0:
            return self
        pj = self.field.residue.p ** j
        prec = None if self.precision is None else self.precision * pj
        if not self.coeffs:
            return LocalFieldElement(self.field, 0, (), prec)
        pairs = {}
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                pairs[(self.leading_exponent + i) * pj] = c ** pj
        lo = min(pairs)
        hi = max(pairs)
        zero = self.field.residue.zero()
        out = [pairs.get(k, zero) for k in range(lo, hi + 1)]
        return make_element(self.field, lo, out, prec)

    def truncate(self, precision):
        """Forget knowledge beyond u^precision."""
        if self.precision is not None and self.precision <= precision:
            return self
        return make_element(self.field, self.leading_exponent, self.coeffs, precision)

    def residue_image(self):
        """Image in the residue field: coefficient of u^0 for integral elements."""
        if self.coeffs and self.leading_exponent < 0:
            raise ValueError("element has a pole; no residue image")
        return self.coeff_at(0)

    # --- comparisons ----------------------------------------------------------------

    def joint_precision(self, other):
        return _min_prec(self.precision, other.precision)

    def agrees(self, other, min_terms=None):
        """True when self and other agree on all jointly known coefficients.

        With min_terms set, additionally require the jointly known window to
        cover at least that many terms past the smaller leading exponent,
        raising PrecisionExhausted otherwise.
        """
        self._check(other)
        prec = self.joint_precision(other)
        lo_candidates = [x.leading_exponent for x in (self, other) if x.coeffs]
        if not lo_candidates:
            if min_terms is not None and prec is not None and prec < min_terms:
                raise PrecisionExhausted("joint precision too small to compare")
            return True
        lo = min(lo_candidates)
        hi = math.inf if prec is None else prec
        if min_terms is not None:
            if hi is not math.inf and hi - lo < min_terms:
                raise PrecisionExhausted(
                    "joint window [%d, %s) has fewer than %d terms" % (lo, hi, min_terms))
        end = max(x.leading_exponent + len(x.coeffs) for x in (self, other))
        if hi is not math.inf:
            end = min(end, hi)
        k = lo
        while k < end:
            if self.coeff_at(k) != other.coeff_at(k):
                return False
            k += 1
        return True

    def series_key(self, terms=16):
        """Hashable canonical key: leading exponent plus the first `terms`
        coefficient codes.  Distinct elements whose difference is visible
        within the window get distinct keys.  An uncertain zero is keyed by
        its precision so it never collapses onto the exact zero."""
        if not self.coeffs:
            return ("zero",) if self.precision is None else ("zerolb", self.precision)
        lo = self.leading_exponent
        out = []
        for k in range(lo, lo + terms):
            if self.precision is not None and k >= self.precision:
                break
            out.append(self.coeff_at(k).to_int())
        return (lo, tuple(out))

    def to_json(self):
        return {
            "leading_exponent": self.leading_exponent if self.coeffs else None,
            "coeffs": [list(c.coeffs) for c in self.coeffs],
            "precision": self.precision,
        }

    def __repr__(self):
        name = self.field.uniformizer
        if not self.coeffs:
            if self.precision is None:
                return "0"
            return "O(%s^%d)" % (name, self.precision)
        parts = []
        shown = 0
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            k = self.leading_exponent + i
            cs = repr(c)
            if k == 0:
                parts.append(cs)
            else:
                head = "" if cs == "1" else cs + "*"
                parts.append("%s%s^%d" % (head, name, k) if k != 1 else "%s%s" % (head, name))
            shown += 1
            if shown >= 8 and i < len(self.coeffs) - 1:
                parts.append("...")
                break
        s = " + ".join(parts)
        if self.precision is not None:
            s += " + O(%s^%d)" % (name, self.precision)
        return s


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _mul_prec(a, b):
    """min(prec_a + ord_lb(b), prec_b + ord_lb(a)), None meaning infinite."""
    candidates = []
    for x, y in ((a, b), (b, a)):
        if x.precision is None:
            continue
        oy = y.order_lower_bound()
        if oy is math.inf:
            # y is exact zero: the product is exactly zero
            return None
        candidates.append(x.precision + oy)
    return min(candidates) if candidates else None


def substitute(x, image_of_uniformizer, coeff_map=None, frobenius_power=0):
    """Evaluate the series x with its uniformizer replaced by another element.

    The replacement element may live in a different field (embedding) or in
    the same field (automorphism).  Residue coefficients pass through
    coeff_map, then through the residue Frobenius p^frobenius_power.
    Raises PrecisionExhausted when nothing significant survives.
    """
    U = image_of_uniformizer
    target = U.field
    if not x.coeffs:
        if x.precision is None:
            return target.zero()
        vU = U.order_lower_bound()
        if vU is math.inf:
            raise PrecisionExhausted("substituting into an exact zero uniformizer image")
        return target.zero(precision=x.precision * vU)

    def move(c):
        if coeff_map is not None:
            c = coeff_map(c)
        elif c.spec != target.residue:
            c = embed_fq(c, target.residue)
        if frobenius_power:
            c = c.frobenius(frobenius_power)
        return c

    e0 = x.leading_exponent
    power = U ** e0 if e0 >= 0 else U.inv() ** (-e0)
    acc = target.zero()
    for i, c in enumerate(x.coeffs):
        if not c.is_zero():
            acc = acc + power.scale(move(c))
        if i < len(x.coeffs) - 1:
            power = power * U
    # account for the unknown tail of x: beyond u^prec_x, terms have order >= prec_x * v(U)
    if x.precision is not None:
        vU = U.order_lower_bound()
        tail = x.precision * vU if vU is not math.inf else None
        if tail is not None:
            acc = acc.truncate(min(tail, acc.precision) if acc.precision is not None else tail)
    if acc.is_zero_mod_precision() and acc.precision is not None and acc.precision <= 0:
        raise PrecisionExhausted("substitution lost all significant terms")
    return acc
