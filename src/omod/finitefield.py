"""Exact arithmetic in small finite fields F_{p^f}, stored in polynomial basis.

Every field uses a fixed published modulus per (p, f) so that serialized
elements mean the same thing everywhere.  The rule behind the table: the
modulus x^f + c_{f-1}x^{f-1} + ... + c_0 is the one whose little-endian digit
string (c_0, ..., c_{f-1}) encodes the smallest integer in base p among all
irreducible choices.  Irreducibility is certified at construction time by
the search for a primitive element (_exp_log): F_p[x]/(modulus) has an
element of order q - 1 exactly when it is a field, since F_q^x is cyclic
and a reducible modulus leaves fewer than q - 1 units.

An FqElement is its field and one integer code, nothing else: its
coordinates in the polynomial basis are the base-p digits of the code, one
byte since q <= 256, so zero is 0 and one is 1.  _Tables holds one field's
arithmetic on codes, built on first use from integer work only: addition
and negation from base-p digits, multiplication, inverse and Frobenius from
the discrete logarithms to that primitive element.  + - * neg and inv are
one table lookup each, ** reads exp/log, and the read-only coeffs view
derives the digits from the code.  The hot loops elsewhere (series, o/t^m)
work on the same codes.

_Tables also holds the packed series kernel.  A series is packed into one
integer, digit d of coefficient i in slot i * (2f - 1) + d, and a product is
one integer product.  Pack, unpack and the fold into F_q work on byte
planes, never per coefficient: pack fills each digit's plane by one strided
slice assignment of a translated code string; unpack reduces a slot mod p
from its byte planes (each translated to a residue, the planes added as
integers, every byte kept below 256), then folds each product coefficient's
2f - 1 digits into a code with the digits of x^f .. x^(2f - 2) mod the
modulus: one integer product by a constant and one translate per part of
the code (fold_plan).  Only for p >= 131, where two residues overflow a
byte, are slots wider than a byte reduced one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import CapExceeded, MixedFields

RESIDUE_CARDINALITY_CAP = 256

# (p, f) -> low coefficients (c_0 .. c_{f-1}) of the monic modulus; f = 1 uses (0,),
# i.e. the modulus x, since degree-1 products never need reduction.
FIXED_MODULI = {
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (2, 4): (1, 1, 0, 0),
    (2, 5): (1, 0, 1, 0, 0),
    (2, 6): (1, 1, 0, 0, 0, 0),
    (2, 7): (1, 1, 0, 0, 0, 0, 0),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0),
    (3, 2): (1, 0),
    (3, 3): (1, 2, 0),
    (3, 4): (2, 1, 0, 0),
    (3, 5): (1, 2, 0, 0, 0),
    (5, 2): (2, 0),
    (5, 3): (1, 1, 0),
    (7, 2): (1, 0),
    (11, 2): (1, 0),
    (13, 2): (2, 0),
}


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod(a, b, low, p):
    """Multiply little-endian coefficient tuples modulo x^f + low(x)."""
    f = len(low)
    c = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % p
    for k in range(2 * f - 2, f - 1, -1):
        t = c[k]
        if t:
            c[k] = 0
            for i, m in enumerate(low):
                c[k - f + i] = (c[k - f + i] - t * m) % p
    return tuple(c[:f])


def _digits(k, p, f):
    """The f base-p digits of k, lowest first."""
    return tuple(k // p ** i % p for i in range(f))


def _undigits(digits, p):
    """The integer with these base-p digits, lowest first."""
    k = 0
    for d in reversed(digits):
        k = k * p + d
    return k


@lru_cache(maxsize=None)
def _exp_log(p, low):
    """(exp, log) of F_p[x]/(x^f + low(x)), or None when it is not a field.
    exp[k] is the code of g^k for the element g of order q - 1 with the
    smallest code; log inverts it on nonzero codes, log[0] = 255.  Such a g
    exists exactly when the ring is a field: F_q^x is cyclic, and a
    reducible modulus leaves fewer than q - 1 units.  Each candidate's order
    is tested by square-and-multiply, O(log q) products: g has order q - 1
    when g^(q - 1) = 1 and g^((q - 1)/r) != 1 for each prime r dividing
    q - 1.  Only the g found has its powers listed."""
    f = len(low)
    q = p ** f
    one = _digits(1, p, f)

    def power(x, e):
        acc = one
        for bit in bin(e)[2:]:
            acc = _poly_mul_mod(acc, acc, low, p)
            if bit == "1":
                acc = _poly_mul_mod(acc, x, low, p)
        return acc

    for g in range(1 if q == 2 else 2, q):
        x = _digits(g, p, f)
        if power(x, q - 1) == one and \
                all(power(x, (q - 1) // r) != one for r in _prime_factors(q - 1)):
            exp, y = [1], one
            for _ in range(q - 2):
                y = _poly_mul_mod(y, x, low, p)
                exp.append(_undigits(y, p))
            log = bytearray([255]) * 256
            for k, c in enumerate(exp):
                log[c] = k
            return bytes(exp), bytes(log)
    return None


def _prime_factors(n):
    ps, d = [], 2
    while d * d <= n:
        if n % d == 0:
            ps.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        ps.append(n)
    return ps


@dataclass(frozen=True)
class FieldSpec:
    """The field F_{p^f} presented as F_p[x]/(modulus)."""

    p: int
    f: int
    modulus: tuple  # low coefficients (c_0 .. c_{f-1}); leading coefficient 1 implied

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError("p = %r is not prime" % (self.p,))
        if self.f < 1 or len(self.modulus) != self.f:
            raise ValueError("modulus degree must equal f")
        if self.p ** self.f > RESIDUE_CARDINALITY_CAP:
            raise CapExceeded("residue cardinality %d exceeds cap %d"
                              % (self.p ** self.f, RESIDUE_CARDINALITY_CAP))
        if _exp_log(self.p, tuple(self.modulus)) is None:
            raise ValueError("modulus %r is reducible over F_%d" % (self.modulus, self.p))

    @property
    def q(self):
        return self.p ** self.f

    def element(self, coeffs):
        return FqElement(self, _undigits([c % self.p for c in coeffs][: self.f], self.p))

    def from_int(self, k):
        """Element whose base-p little-endian digits are k's digits."""
        return FqElement(self, k % self.q)

    def zero(self):
        return FqElement(self, 0)

    def one(self):
        return FqElement(self, 1)

    def gen(self):
        """The class of x (zero when f = 1)."""
        return FqElement(self, self.p if self.f > 1 else 0)

    def elements(self):
        for k in range(self.q):
            yield FqElement(self, k)

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.f) if self.f > 1 else "GF(%d)" % self.p


@lru_cache(maxsize=None)
def GF(p, f=1):
    """Field spec with the fixed published modulus for (p, f)."""
    if f == 1:
        return FieldSpec(p, 1, (0,))
    try:
        low = FIXED_MODULI[(p, f)]
    except KeyError:
        if not _is_prime(p):
            raise ValueError("p = %r is not prime" % (p,)) from None
        raise CapExceeded("no published modulus for (p, f) = (%d, %d); cap is q <= %d"
                          % (p, f, RESIDUE_CARDINALITY_CAP))
    return FieldSpec(p, f, low)


def field_with_order(q):
    """GF(p, f) for q = p^f; rejects non-prime-powers.  p is the smallest
    divisor of q from 2, found by trial division up to isqrt(q) (q itself
    when there is none).  The division stops at the cap: a q above it with
    no divisor up to the cap is over the cap (CapExceeded), prime power or
    not."""
    if q < 2:
        raise ValueError("%d is not a prime power" % q)
    bound = min(math.isqrt(q), RESIDUE_CARDINALITY_CAP)
    p = next((d for d in range(2, bound + 1) if q % d == 0), q)
    if p > RESIDUE_CARDINALITY_CAP:
        raise CapExceeded("residue cardinality %d exceeds cap %d" % (q, RESIDUE_CARDINALITY_CAP))
    f, rest = 0, q
    while rest % p == 0:
        rest //= p
        f += 1
    if rest != 1:
        raise ValueError("%d is not a prime power" % q)
    return GF(p, f)


class FqElement:
    """The element of `spec` with integer code `code`, whose base-p digits
    are its coordinates in the polynomial basis.  Two elements are equal
    exactly when their fields and codes are."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    def __eq__(self, other):
        if other.__class__ is not FqElement:
            return NotImplemented
        return self.code == other.code and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec, self.code))

    @property
    def coeffs(self):
        """The coordinates in the polynomial basis: f digits in [0, p), lowest first."""
        return _digits(self.code, self.spec.p, self.spec.f)

    def _lookup(self, rows, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise MixedFields("elements of %r and %r" % (self.spec, other.spec))
        return FqElement(self.spec, rows[self.code][other.code])

    def is_zero(self):
        return not self.code

    def __add__(self, other):
        return self._lookup(_tables(self.spec).add_rows, other)

    def __sub__(self, other):
        return self._lookup(_tables(self.spec).sub_rows, other)

    def __neg__(self):
        return FqElement(self.spec, _tables(self.spec).neg[self.code])

    def __mul__(self, other):
        return self._lookup(_tables(self.spec).mul_rows, other)

    def inv(self):
        if not self.code:
            raise ZeroDivisionError("inverse of zero in %r" % (self.spec,))
        return FqElement(self.spec, _tables(self.spec).inv[self.code])

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        if not self.code:
            return FqElement(self.spec, 0 if e else 1)
        exp, log = _tables(self.spec)._exp_log
        return FqElement(self.spec, exp[log[self.code] * e % (self.spec.q - 1)])

    def frobenius(self, j=1):
        """a -> a^(p^j); j = f is the identity."""
        return FqElement(self.spec, _frobenius_table(self.spec, j % self.spec.f)[self.code])

    def __repr__(self):
        if self.spec.f == 1:
            return str(self.code)
        return "Fq(%s)" % ",".join(str(c) for c in self.coeffs)


@lru_cache(maxsize=None)
def subfield_embedding_image(src: FieldSpec, dst: FieldSpec):
    """Image of src's generator under the canonical embedding into dst.

    Canonical = the root of src's modulus in dst with the smallest integer
    code.  Requires src.f | dst.f and equal characteristic.
    """
    if src.p != dst.p or dst.f % src.f != 0:
        raise MixedFields("no embedding %r -> %r" % (src, dst))
    if src == dst:
        return dst.gen()
    for cand in dst.elements():
        acc = dst.zero()
        power = dst.one()
        for c in src.modulus:
            if c:
                acc = acc + power * dst.from_int(c)
            power = power * cand
        acc = acc + power  # leading coefficient 1
        if acc.is_zero():
            return cand
    raise MixedFields("modulus of %r has no root in %r" % (src, dst))


def embed_fq(a: FqElement, dst: FieldSpec) -> FqElement:
    """Apply the canonical embedding F_{p^f} -> F_{p^{fk}} to a."""
    if a.spec == dst:
        return a
    img = subfield_embedding_image(a.spec, dst)
    acc = dst.zero()
    power = dst.one()
    for c in a.coeffs:
        if c:
            acc = acc + power * dst.from_int(c)
        power = power * img
    return acc


# --- code-level tables ------------------------------------------------------------

_IDENTITY = bytes(range(256))


def _add_rows(p, digits):
    """Addition rows of (Z/p)^digits on codes k < p^digits, added digit by
    base-p digit: row c is row c - p^i followed by a +1 step in digit i, i
    the lowest nonzero base-p digit of c."""
    size = p ** digits
    steps = []
    w = 1
    for _ in range(digits):
        steps.append(bytes(k - (p - 1) * w if (k // w) % p == p - 1 else k + w
                           for k in range(size)) + _IDENTITY[size:])
        w *= p
    rows = [_IDENTITY]
    for c in range(1, size):
        i, w = 0, 1
        while c // w % p == 0:
            i, w = i + 1, w * p
        rows.append(rows[c - w].translate(steps[i]))
    return tuple(rows)


def _code(residue: FieldSpec, c: FqElement):
    if c.spec != residue:
        raise MixedFields("%r is not in the residue field %r" % (c, residue))
    return c.code


class _Tables:
    """Code-level arithmetic of one residue field F_q, built on first use
    from integer work only, never by FqElement operations (which read it).

    The row tables (add_rows, sub_rows, mul_rows) hold, for each code c, a
    256-byte bytes.translate table of b -> c + b, c - b, c * b.  _exp_log
    is the (exp, log) pair the field's construction certified."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p, f, q = self.p, self.f, self.q = spec.p, spec.f, spec.q
        self.stride = 2 * f - 1                      # digit slots per packed coefficient
        # a digit sum in add reaches 2(p - 1): one byte per slot while that fits
        self.add_width = 1 if 2 * (p - 1) < 256 else 2
        self.mod_p = bytes(v % p for v in range(256))
        self.neg = bytes(_undigits([-d % p for d in _digits(k, p, f)], p)
                         for k in range(q)) + _IDENTITY[q:]
        self._exp_log = _exp_log(p, tuple(spec.modulus))

    @cached_property
    def add_rows(self):
        return _add_rows(self.p, self.f)

    @cached_property
    def sub_rows(self):
        return tuple(self.neg.translate(row) for row in self.add_rows)

    @cached_property
    def mul_rows(self):
        """Row c is log followed by a rotation of exp by log(c)."""
        exp, log = self._exp_log
        q = self.q
        twice = exp + exp
        rows = [bytes(q) + _IDENTITY[q:]]
        for c in range(1, q):
            rotated = twice[log[c]:log[c] + q - 1] + bytes(257 - q)   # index 255 -> 0
            rows.append(log[:q].translate(rotated) + _IDENTITY[q:])
        return tuple(rows)

    @cached_property
    def inv(self):
        """code -> code of its inverse (0 -> 0)."""
        exp, log = self._exp_log
        return bytes([0]) + bytes(exp[-log[c] % (self.q - 1)] for c in range(1, self.q))

    @cached_property
    def digit_rows(self):
        """digit_rows[d] is the translate table of code -> its base-p digit d."""
        p = self.p
        return tuple(bytes(c // p ** d % p for c in range(256)) for d in range(self.f))

    @cached_property
    def fold_plan(self):
        """How unpack folds the stride reduced digits v_d of a product
        coefficient, the polynomial sum_d v_d x^d, into the code of its class
        mod the modulus.  Digit i of that code is u_i mod p, where u_i =
        sum_d c_di v_d and c_di is the x^i coefficient of x^d mod the modulus,
        so u_i < r_i = (p - 1) sum_d c_di + 1.  The digits are grouped into
        parts whose mixed-radix index sum_i w_i u_i (w_i the product of the
        radixes before i in its part) stays below 256.  A part is
        (multiplier, table).  The digit string, read as an integer, times
        multiplier = sum_(i, d) w_i c_di 256^(stride - 1 - d) holds the part's
        index of coefficient k in byte k * stride + stride - 1, and no byte
        carries; table maps an index to the part's share of the code.  F_4,
        F_8, F_9, F_16 and F_25 take one part, F_256 three."""
        p, f, s = self.p, self.f, self.stride
        x_powers = [_digits(1, p, f)]
        for _ in range(1, s):
            x_powers.append(_poly_mul_mod(x_powers[-1], _digits(p, p, f), self.spec.modulus, p))
        parts, part, span = [], [], 1
        for i in range(f):
            column = [x[i] for x in x_powers]
            radix = (p - 1) * sum(column) + 1
            if span * radix > 256:
                parts.append(part)
                part, span = [], 1
            part.append((i, column, span, radix))
            span *= radix
        parts.append(part)
        plan = []
        for part in parts:
            multiplier = sum(w * c << 8 * (s - 1 - d)
                             for _, column, w, _ in part for d, c in enumerate(column))
            table = bytes(sum(k // w % r % p * p ** i for i, _, w, r in part) for k in range(256))
            plan.append((multiplier, table))
        return tuple(plan)

    def pack(self, codes, width):
        """codes as one integer: digit d of coefficient i fills slot
        i * stride + d, each slot `width` bytes wide.  One strided slice
        assignment per digit plane."""
        if self.stride == 1 and width == 1:
            return int.from_bytes(codes, "little")
        step = self.stride * width
        buf = bytearray(len(codes) * step)
        for d, row in enumerate(self.digit_rows):
            buf[d * width::step] = codes.translate(row)
        return int.from_bytes(buf, "little")

    def unpack(self, value, n, width):
        """The first n coefficient codes of a packed integer (any slot values
        below 256**width): slots reduced mod p, then folded into F_q, both on
        byte planes.  A wide slot is the sum of its byte planes raw[k::width]
        times 256^k, each translated to a residue mod p.  For p <= 127 a byte
        holds the sum of two or more residues, so the planes add as integers,
        reduced every `lanes` planes; from p = 131 on two residues overflow a
        byte, and each wide slot is reduced alone."""
        s, p = self.stride, self.p
        slots = n * s
        size = slots * width
        raw = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        if width == 1:
            digits = raw.translate(self.mod_p)
        elif p < 128:
            lanes = 255 // (p - 1)
            total = count = 0
            for k, table in _plane_residues(p, width):
                if count == lanes:
                    total = int.from_bytes(total.to_bytes(slots, "little").translate(self.mod_p),
                                           "little")
                    count = 1
                total += int.from_bytes(raw[k::width].translate(table), "little")
                count += 1
            digits = total.to_bytes(slots, "little").translate(self.mod_p)
        else:
            digits = bytes([int.from_bytes(raw[i:i + width], "little") % p
                            for i in range(0, size, width)])
        if s == 1:
            return digits
        x = int.from_bytes(digits, "little")
        code = 0
        for multiplier, table in self.fold_plan:
            part = (x * multiplier).to_bytes(slots + s - 1, "little")[s - 1::s].translate(table)
            code += int.from_bytes(part, "little")
        return code.to_bytes(n, "little")

    def add(self, a, ia, b, ib):
        """Codes of u^ia * a + u^ib * b (ia, ib >= 0)."""
        width = self.add_width
        shift = 8 * self.stride * width
        x = (self.pack(a, width) << shift * ia) + (self.pack(b, width) << shift * ib)
        return self.unpack(x, max(ia + len(a), ib + len(b)), width)

    def mul(self, a, b, n):
        """First n coefficient codes of a * b, by one integer product."""
        a, b = a[:n], b[:n]
        bound = min(len(a), len(b)) * self.f * (self.p - 1) ** 2   # largest slot value
        width = 1
        while bound >> 8 * width:
            width *= 2
        return self.unpack(self.pack(a, width) * self.pack(b, width), n, width)


@lru_cache(maxsize=None)
def _tables(spec: FieldSpec) -> _Tables:
    return _Tables(spec)


@lru_cache(maxsize=None)
def _plane_residues(p, width):
    """(k, table) for each byte plane k of a `width`-byte slot whose weight
    256^k is not 0 mod p: table sends a byte b to b * 256^k mod p."""
    out = []
    for k in range(width):
        r = pow(256, k, p)
        if r:
            out.append((k, bytes(b * r % p for b in range(256))))
    return tuple(out)


@lru_cache(maxsize=None)
def _digit_chunks(spec: FieldSpec, width: int):
    """code -> its packed coefficient: f digit slots of `width` bytes, then
    zero slots up to the stride."""
    tables = _tables(spec)
    pad = bytes((tables.stride - tables.f) * width)
    return tuple(b"".join(d.to_bytes(width, "little") for d in _digits(k, spec.p, spec.f)) + pad
                 for k in range(spec.q))


@lru_cache(maxsize=None)
def _frobenius_table(spec: FieldSpec, j: int):
    """Translation table of a -> a^(p^j)."""
    exp, log = _tables(spec)._exp_log
    q, e = spec.q, spec.p ** (j % spec.f)
    return bytes([0]) + bytes(exp[log[c] * e % (q - 1)] for c in range(1, q)) + _IDENTITY[q:]


@lru_cache(maxsize=None)
def _move_table(src: FieldSpec, dst: FieldSpec):
    """Translation table of c -> embed(c), src codes to dst codes."""
    return bytes(embed_fq(a, dst).code for a in src.elements()) + _IDENTITY[src.q:]
