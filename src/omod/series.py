"""Precision-tracked Laurent series over finite residue fields.

An element is a window of known coefficients starting at its leading exponent,
together with a truncation order: the element is known modulo u^precision.
precision None means the element is exact (a Laurent polynomial).  "Zero
modulo u^N" is kept distinct from exact zero: its valuation is only bounded
below, never reported as an exact number.

Coefficients are stored as codes, one byte each: an F_q element is its
field and its code (FqElement.code), whose base-p digits are its
coordinates in the polynomial basis (q <= 256).  Series multiplication is
one integer product (Kronecker substitution): each coefficient's digits go
into slots of a packed integer, wide enough that no slot overflows, and the
product's slots are reduced mod p and folded back into F_q, on byte planes
by translate tables and integer adds rather than coefficient by coefficient
(finitefield's _Tables.pack and unpack).  Per-coefficient maps (negation,
scaling, Frobenius, embeddings) are byte translation tables; all tables are
finitefield's, built on first use and shared with o/t^m and with FqElement's
own operations.  Constructors read the code of each FqElement given (after
checking its field), and coeffs, coeff_at and leading_coeff wrap a stored
code with the residue field, so no conversion runs in either direction.

Substitution x(U) = sum_i c_i U^(e0+i) is a linear map once the powers of U
are known.  Its domain is what the tower code substitutes: a power series x
(e0 >= 0) into an image U whose leading term is known.  Each element used as a uniformizer image keeps a table of its
powers (the cached property `_powers`), reused by every later substitution
into the same image: the images of embeddings and automorphisms, which the
tower code applies many times each.  The table forms only the powers a
substitution uses and the base-p chains below them: U^k is the Frobenius
twist of U^(k//p) (no product, since x -> x^p is a ring endomorphism in
characteristic p) times U^(k mod p), the twist truncated to the precision
consecutive products would give.  A substitution is then one packed
integer accumulation of the scaled powers, unpacked once.  The table lives
in the image's own __dict__ (for an embedding's image, in the
BaseEmbedding, which hands every copy of the image the same table) and
refers to no element or field, so it is freed together with its image by
reference counting.

Every operation computes the exact propagated precision; nothing is truncated
silently.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
import math
import weakref

from .errors import (DivisionByUncertainZero, IndexOutOfRange, MixedFields, NotInTower,
                     PrecisionExhausted, UncertainValuation)
from .finitefield import (FieldSpec, FqElement, GF, _code, _digit_chunks, _frobenius_table,
                          _move_table, _tables)


class BaseEmbedding:
    """How a base field sits inside an extension.

    image_of_base_uniformizer is a series in the extension's uniformizer with
    valuation equal to the ramification index; residue-field constants move
    by the canonical embedding (embed_fq).  The extension holds its
    embedding, so the embedding keeps the image as data with only a weak
    reference to the extension, and a tower is freed by reference counting.
    Every copy of the image it hands out shares one power table.
    """

    def __init__(self, image_of_base_uniformizer):
        image = image_of_base_uniformizer
        self._field = weakref.ref(image.field)
        self._image = (image.leading_exponent, image.codes, image.precision)
        self._powers = _PowerTable()

    @property
    def image_of_base_uniformizer(self):
        image = LocalFieldElement(self._field(), *self._image)
        image.__dict__["_powers"] = self._powers     # what the cached property would hold
        return image


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
        return LocalFieldElement(self, 0, b"", precision)

    def one(self):
        return LocalFieldElement(self, 0, b"\x01", None)

    def constant(self, c: FqElement):
        return make_element(self, 0, (c,), None)

    def uniformizer_elt(self, power=1):
        return LocalFieldElement(self, power, b"\x01", None)

    def __repr__(self):
        return "%r((%s))" % (self.residue, self.uniformizer)


def base_field(p, f=1, precision=64, uniformizer="t"):
    """Fresh root field F_{p^f}((t)).  Distinct calls give distinct specs."""
    return LocalFieldSpec(GF(p, f), uniformizer, default_precision=precision)


def make_element(field, e0, coeffs, precision):
    """Element from FqElement coefficients of the field's residue field
    (MixedFields otherwise), normalized as _make does."""
    residue = field.residue
    return _make(field, e0, bytes([_code(residue, c) for c in coeffs]), precision)


def _make(field, e0, codes, precision):
    """Normalize: clamp to precision, strip zero codes at both ends."""
    if precision is not None:
        # drop stored coefficients at or beyond the truncation order
        keep = precision - e0
        if keep < len(codes):
            codes = codes[: max(keep, 0)]
    stripped = codes.lstrip(b"\0")
    e0 += len(codes) - len(stripped)
    codes = stripped.rstrip(b"\0")
    if not codes:
        return LocalFieldElement(field, 0, b"", precision)
    return LocalFieldElement(field, e0, codes, precision)


@dataclass(frozen=True)
class LocalFieldElement:
    """Laurent series known modulo u^precision (None = exact)."""

    field: LocalFieldSpec
    leading_exponent: int
    codes: bytes  # coefficient codes; codes[0] != 0 unless the element is zero
    precision: int | None = None

    @property
    def coeffs(self):
        """The stored coefficients as FqElements."""
        residue = self.field.residue
        return tuple(FqElement(residue, c) for c in self.codes)

    @cached_property
    def _powers(self):
        """This element's power table, for substitutions into it."""
        return _PowerTable()

    # --- basic queries ----------------------------------------------------------

    def is_exact(self):
        return self.precision is None

    def is_known_nonzero(self):
        return bool(self.codes)

    def is_exact_zero(self):
        return not self.codes and self.precision is None

    def is_zero_mod_precision(self):
        return not self.codes

    def order_lower_bound(self):
        """u-adic order lower bound; always available.  Stored terms at or
        beyond the precision (only direct construction makes them) are not
        known, so the bound is then the precision."""
        if self.codes:
            if self.precision is not None:
                return min(self.leading_exponent, self.precision)
            return self.leading_exponent
        return math.inf if self.precision is None else self.precision

    def order(self):
        """Exact u-adic order.  Raises UncertainValuation for uncertain zeros."""
        if self.codes:
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
        if not self.codes:
            raise UncertainValuation("no known nonzero term")
        return FqElement(self.field.residue, self.codes[0])

    def coeff_at(self, k):
        """Coefficient of u^k; raises PrecisionExhausted if unknown."""
        if self.precision is not None and k >= self.precision:
            raise PrecisionExhausted("coefficient of u^%d unknown (precision %d)"
                                     % (k, self.precision))
        i = k - self.leading_exponent
        code = self.codes[i] if 0 <= i < len(self.codes) else 0
        return FqElement(self.field.residue, code)

    def _window(self, lo, end):
        """Codes of u^lo .. u^(end-1), zero outside the stored terms."""
        if end <= lo:
            return b""
        i = self.leading_exponent - lo
        w = bytes(i) + self.codes if i >= 0 else self.codes[-i:]
        w = w[:end - lo]
        return w + bytes(end - lo - len(w))

    def _check(self, other):
        if self.field is not other.field:
            raise MixedFields("elements of %r and %r are not comparable"
                              % (self.field, other.field))

    # --- ring operations ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        prec = _min_prec(self.precision, other.precision)
        if not self.codes:
            return _make(other.field, other.leading_exponent, other.codes, prec)
        if not other.codes:
            return _make(self.field, self.leading_exponent, self.codes, prec)
        lo = min(self.leading_exponent, other.leading_exponent)
        codes = _tables(self.field.residue).add(
            self.codes, self.leading_exponent - lo, other.codes, other.leading_exponent - lo)
        return _make(self.field, lo, codes, prec)

    def __neg__(self):
        return LocalFieldElement(self.field, self.leading_exponent,
                                 self.codes.translate(_tables(self.field.residue).neg),
                                 self.precision)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        prec = _mul_prec(self, other)
        if not self.codes or not other.codes:
            return LocalFieldElement(self.field, 0, b"", prec)
        e0 = self.leading_exponent + other.leading_exponent
        n = len(self.codes) + len(other.codes) - 1
        if prec is not None:
            # coefficients at or beyond u^prec are unknown: never form them
            n = max(min(n, prec - e0), 0)
        codes = _tables(self.field.residue).mul(self.codes, other.codes, n)
        return _make(self.field, e0, codes, prec)

    def scale(self, c: FqElement):
        """Multiply by a residue constant."""
        if c.is_zero():
            return LocalFieldElement(self.field, 0, b"", self.precision)
        return self._scaled(_code(self.field.residue, c))

    def _scaled(self, c):
        """Multiply by the nonzero residue constant with code c."""
        table = _tables(self.field.residue).mul_rows[c]
        return _make(self.field, self.leading_exponent, self.codes.translate(table),
                     self.precision)

    def inv(self, precision=None):
        """Multiplicative inverse.

        For an exact non-monomial input the reciprocal is an infinite series;
        it is returned at the requested precision (default: the field's
        working precision), and the result's precision field records that.
        """
        if not self.codes:
            if self.precision is None:
                raise ZeroDivisionError("inverse of exact zero")
            raise DivisionByUncertainZero(
                "divisor is zero modulo u^%d" % self.precision)
        tables = _tables(self.field.residue)
        v = self.leading_exponent
        self.coeff_at(v)            # PrecisionExhausted when u^v is not known
        b = bytes([tables.inv[self.codes[0]]])
        if self.precision is None:
            if len(self.codes) == 1 and precision is None:
                return LocalFieldElement(self.field, -v, b, None)
            nterms = (precision + v) if precision is not None else self.field.default_precision
            out_prec = -v + nterms
        else:
            out_prec = self.precision - 2 * v
            if precision is not None:
                out_prec = min(out_prec, precision)
            nterms = out_prec + v
        nterms = max(nterms, 1)
        # Newton iteration b <- b (2 - a b): each step doubles the known terms
        a = self.codes
        k = 1
        while k < nterms:
            k2 = min(2 * k, nterms)
            # a b = 1 + u^k E mod u^k2, so b (1 - a b) = u^k * b (-E)
            minus_e = tables.mul(a, b, k2)[k:].translate(tables.neg)
            b += tables.mul(b, minus_e, k2 - k)
            k = k2
        return _make(self.field, -v, b, out_prec)

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
        if not self.codes:
            return LocalFieldElement(self.field, 0, b"", prec)
        out = bytearray(pj * (len(self.codes) - 1) + 1)
        out[::pj] = self.codes.translate(_frobenius_table(self.field.residue, j))
        return _make(self.field, self.leading_exponent * pj, bytes(out), prec)

    def truncate(self, precision):
        """Forget knowledge beyond u^precision."""
        if self.precision is not None and self.precision <= precision:
            return self
        return _make(self.field, self.leading_exponent, self.codes, precision)

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
        lo_candidates = [x.leading_exponent for x in (self, other) if x.codes]
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
        end = max(x.leading_exponent + len(x.codes) for x in (self, other))
        if hi is not math.inf:
            end = min(end, hi)
        return self._window(lo, end) == other._window(lo, end)

    def to_json(self):
        return {
            "leading_exponent": self.leading_exponent if self.codes else None,
            "coeffs": [list(digits) for digits in zip(*(
                self.codes.translate(row) for row in _tables(self.field.residue).digit_rows))],
            "precision": self.precision,
        }

    def __repr__(self):
        name = self.field.uniformizer
        if not self.codes:
            if self.precision is None:
                return "0"
            return "O(%s^%d)" % (name, self.precision)
        parts = []
        shown = 0
        coeffs = self.coeffs
        for i, c in enumerate(coeffs):
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
            if shown >= 8 and i < len(coeffs) - 1:
                parts.append("...")
                break
        s = " + ".join(parts)
        if self.precision is not None:
            s += " + O(%s^%d)" % (name, self.precision)
        return s


def series_keys(elements):
    """One hashable, orderable key per element of a compared set: the leading
    exponent and codes of its terms below the least precision any member
    knows (all stored terms when every member is exact).  Two members share a
    key exactly when they agree on that window, which every member knows: a
    point known to two precisions keys once, and a difference inside the
    window always separates.  Members zero on the window key as (inf, b"")."""
    elements = list(elements)
    end = min((x.precision for x in elements if x.precision is not None), default=None)
    keys = []
    for x in elements:
        codes = x.codes if end is None else x.codes[:max(end - x.leading_exponent, 0)]
        codes = codes.rstrip(b"\0")
        keys.append((x.leading_exponent, codes) if codes else (math.inf, b""))
    return keys


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


class _PowerTable:
    """The powers U^k, k >= 0, of one substitution image U, each formed once,
    when a substitution first needs it.  U has a known leading term (it is
    exact, or its leading exponent v lies below its precision); substitute
    admits no other image.  U^0 = 1 and U^k = U^(k-1) * U for 0 < k < p.
    From k = p on, U^k = Frob(U^(k//p)) * U^(k mod p): x -> x^p is a ring
    endomorphism in characteristic p, so the twist costs no product.  The
    twist is truncated to prec(U) + (p (k//p) - 1) v, the precision of the
    consecutive product, so every U^k equals that product, codes and
    precision both.  For U of nonnegative order, a combination of powers
    equals the power-by-power evaluation from U ** e0, precision included.
    Each power is kept as (leading exponent, codes, precision), its codes
    packed on first use.  The table refers to no element or field: U is
    passed to every call."""

    def __init__(self):
        self.powers = {0: (0, b"\x01", None)}  # k -> U^k, for the k formed so far
        self.packed = {}                      # (k, width) -> the codes of U^k packed at width

    def power(self, U, k):
        """(leading exponent, codes, precision) of U^k, k >= 0."""
        powers = self.powers
        if k in powers:
            return powers[k]
        field = U.field
        p = field.residue.p
        if k < p:
            j = k - 1
            while j not in powers:
                j -= 1
            for j in range(j + 1, k + 1):
                y = LocalFieldElement(field, *powers[j - 1]) * U
                powers[j] = (y.leading_exponent, y.codes, y.precision)
            return powers[k]
        j, r = divmod(k, p)
        y = LocalFieldElement(field, *self.power(U, j))
        if U.precision is None:
            y = y.frobenius_power(1)
        else:
            # v(U^(pj)) = pj v(U), so the consecutive U^(pj) is known to
            # prec(U) + (pj - 1) v(U), at most p prec(U^j)
            prec = U.precision + (p * j - 1) * U.leading_exponent
            y = y.truncate(-(-prec // p)).frobenius_power(1).truncate(prec)
        if r:
            y = y * LocalFieldElement(field, *self.power(U, r))
        powers[k] = (y.leading_exponent, y.codes, y.precision)
        return powers[k]

    def combine(self, U, e0, codes):
        """sum_i codes[i] U^(e0+i) (codes of U's residue field), known to the
        least precision of the powers it uses: one integer accumulation in
        the Kronecker layout of _Tables.pack, unpacked once."""
        prec = None
        terms = []
        for i, c in enumerate(codes):
            if c:
                lead, power, power_prec = self.power(U, e0 + i)
                prec = _min_prec(prec, power_prec)
                if power:
                    terms.append((e0 + i, lead, power, c))
        field = U.field
        if not terms:
            return field.zero(prec)
        lo = min(t[1] for t in terms)
        end = max(lead + len(power) for _, lead, power, _ in terms)
        n = end - lo if prec is None else min(end, prec) - lo
        if n <= 0:
            return field.zero(prec)
        tables = _tables(field.residue)
        # a scaled power puts at most f products of digits below p into a slot
        bound = len(terms) * tables.f * (tables.p - 1) ** 2
        width = 1
        while bound >> 8 * width:
            width *= 2
        # c as one packed coefficient: multiplying by it shifts digit d of c by d slots
        scalars = _digit_chunks(field.residue, width)
        shift = 8 * tables.stride * width
        packed = self.packed
        acc = 0
        for k, lead, power, c in terms:
            if lead - lo >= n:
                continue
            v = packed.get((k, width))
            if v is None:
                v = packed[k, width] = tables.pack(power, width)
            acc += (v * int.from_bytes(scalars[c], "little")) << shift * (lead - lo)
        return _make(field, lo, tables.unpack(acc, n, width), prec)


def substitute(x, image_of_uniformizer):
    """Evaluate the power series x with its uniformizer replaced by another
    element.

    The replacement element may live in a different field (embedding) or in
    the same field (automorphism).  Residue coefficients pass through the
    canonical embedding into the target residue field.  An x that is zero
    modulo its precision gives zero to the precision it implies.  Otherwise
    x must have no pole (IndexOutOfRange) and the image a known leading term:
    exact, or with its leading exponent below its precision
    (PrecisionExhausted).  Raises PrecisionExhausted when nothing significant
    survives.

    The powers of the image come from its power table (_PowerTable), which
    the image keeps for its lifetime: a call forms only the powers (and
    their base-p chains) no earlier call into the same image needed, and
    then adds up the scaled powers in one packed integer.
    """
    U = image_of_uniformizer
    target = U.field
    if not x.codes:
        if x.precision is None:
            return target.zero()
        vU = U.order_lower_bound()
        if vU is math.inf:
            raise PrecisionExhausted("substituting into an exact zero uniformizer image")
        return target.zero(precision=x.precision * vU)
    if x.leading_exponent < 0:
        raise IndexOutOfRange("substituting a series with a pole of order %d"
                              % -x.leading_exponent)
    if U.precision is not None and not (U.codes and U.leading_exponent < U.precision):
        raise PrecisionExhausted("uniformizer image has no known leading term below u^%d"
                                 % U.precision)
    codes = x.codes.translate(_move_table(x.field.residue, target.residue))
    e0 = x.leading_exponent
    acc = U._powers.combine(U, e0, codes)
    # account for the unknown tail of x: beyond u^prec_x, terms have order >= prec_x * v(U)
    if x.precision is not None:
        vU = U.order_lower_bound()
        tail = x.precision * vU if vU is not math.inf else None
        if tail is not None:
            acc = acc.truncate(min(tail, acc.precision) if acc.precision is not None else tail)
    if acc.is_zero_mod_precision() and acc.precision is not None and acc.precision <= 0:
        raise PrecisionExhausted("substitution lost all significant terms")
    return acc
