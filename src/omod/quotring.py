"""The truncated power-series ring o/t^m over a finite residue field.

Elements are written a_0 + a_1 t + ... + a_{m-1} t^{m-1} with a_j in F_q.
This ring underlies unit groups, torsion-point coordinates, matrix entries
and the multiplication indices [a] of formal modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MixedFields
from .finitefield import FieldSpec, embed_fq, project_fq


@dataclass(frozen=True)
class OModRing:
    """o/t^m with residue field `residue`."""

    residue: FieldSpec
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("truncation level m must be >= 1")

    @property
    def size(self):
        return self.residue.q ** self.m

    def element(self, coeffs):
        coeffs = list(coeffs)[: self.m]
        coeffs += [self.residue.zero()] * (self.m - len(coeffs))
        return OModElement(self, tuple(coeffs))

    def from_int_digits(self, k):
        """Element whose t-digits are the base-q digits of k (q = residue order)."""
        digs = []
        for _ in range(self.m):
            digs.append(self.residue.from_int(k % self.residue.q))
            k //= self.residue.q
        return OModElement(self, tuple(digs))

    def zero(self):
        return self.from_int_digits(0)

    def one(self):
        return self.from_int_digits(1)

    def t(self):
        return self.from_int_digits(self.residue.q) if self.m > 1 else self.zero()

    def elements(self):
        """All q^m elements in lexicographic coefficient order."""
        for k in range(self.size):
            yield self.from_int_digits(k)

    def units(self):
        for a in self.elements():
            if a.is_unit():
                yield a

    def __repr__(self):
        return "O(%r)/t^%d" % (self.residue, self.m)


@dataclass(frozen=True)
class OModElement:
    ring: OModRing
    coeffs: tuple  # length m, FqElement entries

    def _check(self, other):
        if self.ring != other.ring:
            raise MixedFields("elements of %r and %r" % (self.ring, other.ring))

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def is_unit(self):
        return not self.coeffs[0].is_zero()

    def level(self):
        """Exact t-order: min j with a_j != 0, or m if zero."""
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                return j
        return self.ring.m

    def __add__(self, other):
        self._check(other)
        return OModElement(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return OModElement(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return OModElement(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        m = self.ring.m
        zero = self.ring.residue.zero()
        out = [zero] * m
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= m:
                    break
                out[i + j] = out[i + j] + a * b
        return OModElement(self.ring, tuple(out))

    def inv(self):
        if not self.is_unit():
            raise ZeroDivisionError("non-unit %r has no inverse" % (self,))
        m = self.ring.m
        b0 = self.coeffs[0].inv()
        out = [b0] + [self.ring.residue.zero()] * (m - 1)
        for k in range(1, m):
            acc = self.ring.residue.zero()
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -(b0 * acc)
        return OModElement(self.ring, tuple(out))

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        r = self.ring.one()
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def frobenius(self, j=1):
        """Coefficient-wise a_i -> a_i^(p^j)."""
        return OModElement(self.ring, tuple(c.frobenius(j) for c in self.coeffs))

    def norm_to(self, sub_residue: FieldSpec):
        """Product of the coefficient-Frobenius conjugates over the subring.

        For residue F_{q^n} over sub-residue F_q this is N = prod_j Frob^j
        (Frob = q-power map), and the result is returned in o_sub/t^m.
        """
        f_sub = sub_residue.f
        big = self.ring.residue
        if big.p != sub_residue.p or big.f % f_sub != 0:
            raise MixedFields("no norm %r -> %r" % (big, sub_residue))
        n = big.f // f_sub
        acc = self.ring.one()
        for j in range(n):
            acc = acc * self.frobenius(f_sub * j)
        sub_ring = OModRing(sub_residue, self.ring.m)
        return sub_ring.element(tuple(project_fq(c, sub_residue) for c in acc.coeffs))

    def lift_to(self, ring: OModRing):
        """Canonical lift/extension: reinterpret digits in a compatible ring."""
        if ring.residue == self.ring.residue:
            coeffs = list(self.coeffs[: ring.m])
        else:
            coeffs = [embed_fq(c, ring.residue) for c in self.coeffs[: ring.m]]
        return ring.element(coeffs)

    def reduce_to(self, m):
        return OModRing(self.ring.residue, m).element(self.coeffs[:m])

    def lex_key(self):
        return tuple(c.to_int() for c in self.coeffs)

    def to_json(self):
        return {"m": self.ring.m, "coeffs": [list(c.coeffs) for c in self.coeffs]}

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = repr(c)
            if j == 0:
                parts.append(cs)
            elif j == 1:
                parts.append("%s*t" % cs if cs != "1" else "t")
            else:
                parts.append("%s*t^%d" % (cs, j) if cs != "1" else "t^%d" % j)
        return " + ".join(parts) if parts else "0"
