"""Exact arithmetic in small finite fields F_{p^f}, stored in polynomial basis.

Every field uses a fixed published modulus per (p, f) so that serialized
elements mean the same thing everywhere.  The rule behind the table: the
modulus x^f + c_{f-1}x^{f-1} + ... + c_0 is the one whose little-endian digit
string (c_0, ..., c_{f-1}) encodes the smallest integer in base p among all
irreducible choices.  Irreducibility is re-checked at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _poly_pow_mod(base, e, low, p):
    f = len(low)
    r = tuple([1] + [0] * (f - 1))
    b = tuple(base)
    while e:
        if e & 1:
            r = _poly_mul_mod(r, b, low, p)
        b = _poly_mul_mod(b, b, low, p)
        e >>= 1
    return r


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


def is_irreducible(low, p):
    """Rabin test for the monic polynomial x^f + low(x) over F_p."""
    f = len(low)
    if f == 1:
        return True
    x = tuple([0, 1] + [0] * (f - 2))
    if _poly_pow_mod(x, p ** f, low, p) != x:
        return False
    for r in _prime_factors(f):
        xr = _poly_pow_mod(x, p ** (f // r), low, p)
        diff = tuple((xr[i] - x[i]) % p for i in range(f))
        # gcd(modulus, x^(p^(f/r)) - x) must be 1; modulus is irreducible iff the
        # difference is a unit mod the modulus, i.e. invertible, i.e. nonzero with
        # gcd 1.  Cheap equivalent at these sizes: the difference must not share a
        # root structure, tested via gcd on full coefficient lists.
        if _poly_gcd_degree(list(low) + [1], list(diff), p) > 0:
            return False
    return True


def _poly_gcd_degree(a, b, p):
    def deg(c):
        d = len(c) - 1
        while d >= 0 and c[d] == 0:
            d -= 1
        return d

    a, b = a[:], b[:]
    while True:
        db = deg(b)
        if db < 0:
            return deg(a)
        da = deg(a)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], p - 2, p)
        t = (a[da] * inv) % p
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - t * b[i]) % p


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
        if not is_irreducible(self.modulus, self.p):
            raise ValueError("modulus %r is reducible over F_%d" % (self.modulus, self.p))

    @property
    def q(self):
        return self.p ** self.f

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.f:
            coeffs = tuple(list(coeffs)[: self.f] + [0] * (self.f - len(coeffs)))
        return FqElement(self, coeffs)

    def from_int(self, k):
        """Element whose base-p little-endian digits are k's digits."""
        digs = []
        for _ in range(self.f):
            digs.append(k % self.p)
            k //= self.p
        return FqElement(self, tuple(digs))

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def gen(self):
        """The class of x (zero when f = 1)."""
        return self.from_int(self.p) if self.f > 1 else self.zero()

    def elements(self):
        for k in range(self.q):
            yield self.from_int(k)

    def to_json(self):
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}

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
        raise CapExceeded("no published modulus for (p, f) = (%d, %d); cap is q <= %d"
                          % (p, f, RESIDUE_CARDINALITY_CAP))
    return FieldSpec(p, f, low)


def field_with_order(q):
    """GF(p, f) for q = p^f; rejects non-prime-powers."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            f = 0
            qq = q
            while qq % p == 0:
                qq //= p
                f += 1
            if qq != 1:
                raise ValueError("%d is not a prime power" % q)
            return GF(p, f)
    raise ValueError("%d is not a prime power" % q)


@dataclass(frozen=True)
class FqElement:
    """Element of F_{p^f}: coefficient tuple of length f, entries in [0, p)."""

    spec: FieldSpec
    coeffs: tuple

    def _check(self, other):
        if self.spec != other.spec:
            raise MixedFields("elements of %r and %r" % (self.spec, other.spec))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        return FqElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        return FqElement(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.spec.p
        return FqElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return FqElement(self.spec, _poly_mul_mod(self.coeffs, other.coeffs,
                                                  self.spec.modulus, self.spec.p))

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in %r" % (self.spec,))
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return FqElement(self.spec, _poly_pow_mod(self.coeffs, e, self.spec.modulus, self.spec.p))

    def frobenius(self, j=1):
        """a -> a^(p^j); j = f is the identity."""
        j %= self.spec.f
        return self ** (self.spec.p ** j)

    def to_int(self):
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.spec.p + c
        return k

    def to_json(self):
        return {"field": self.spec.to_json(), "coeffs": list(self.coeffs)}

    def __repr__(self):
        if self.spec.f == 1:
            return str(self.coeffs[0])
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


@lru_cache(maxsize=None)
def _subfield_preimage_table(src: FieldSpec, dst: FieldSpec):
    return {embed_fq(a, dst): a for a in src.elements()}


def project_fq(a: FqElement, src: FieldSpec) -> FqElement:
    """Inverse of embed_fq on its image; raises if a is not in the subfield."""
    if a.spec == src:
        return a
    table = _subfield_preimage_table(src, a.spec)
    try:
        return table[a]
    except KeyError:
        raise MixedFields("%r does not lie in the subfield %r" % (a, src))
