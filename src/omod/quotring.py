"""The truncated power-series ring o/t^m over a finite residue field.

Elements are written a_0 + a_1 t + ... + a_{m-1} t^{m-1} with a_j in F_q.
This ring underlies unit groups, torsion-point coordinates, matrix entries
and the multiplication indices [a] of formal modules.

An OModElement is its ring and one integer code, and nothing else: code k
is the element whose t-digits are the base-q digits of k, for rings of any
size, so zero is 0, one is 1 and k is a unit exactly when k % q != 0, as in
F_q.  OModRing.code_tables holds the arithmetic on these codes with the row
tables of F_q's _Tables (add_rows, sub_rows, mul_rows), neg, inv (0 on
non-units) and shift (times t), so + - * and inv are one lookup each,
is_unit is k % q and reduce_to(j) is k % q^j.  A ring of at most 256
elements has full tables (_RingTables); a larger ring fills each row on
first lookup (_WideTables), by the schoolbook kernel _add_codes/_mul_codes
on digit strings.  _determinant eliminates on these codes with unit pivots
and ends with a*d - b*c on the last 2x2 block; it reports a non-unit
determinant as None rather than raising.  pi0's sampled checks run on these
codes from draw to comparison.

The digits are derived, not stored: the read-only codes view decodes an
element's code to a bytes string of length m whose j-th byte is the code
of a_j, FqElement.code (finitefield's code tables, shared with the series
kernel).  The per-digit maps (Frobenius, embedding, projection) translate
that string, and _undigits turns digits back into a code.  ring.element reads
the code of each FqElement given, and the read-only coeffs view wraps each
digit code with the residue field as an FqElement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import MixedFields
from .finitefield import (_IDENTITY, FieldSpec, FqElement, _add_rows, _code, _frobenius_table,
                          _move_table, _tables, _undigits)


@dataclass(frozen=True)
class OModRing:
    """o/t^m with residue field `residue`."""

    residue: FieldSpec
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("truncation level m must be >= 1")

    @cached_property
    def tables(self):
        return _tables(self.residue)

    @cached_property
    def size(self):
        return self.residue.q ** self.m

    @cached_property
    def code_tables(self):
        """The integer code tables: built in full for a ring of at most 256
        elements, filled on first lookup beyond.  Shared by every equal ring."""
        return _code_tables(self.residue, self.m)

    def element(self, coeffs):
        digits = [_code(self.residue, c) for c in list(coeffs)[: self.m]]
        return OModElement(self, _undigits(digits, self.residue.q))

    def zero(self):
        return OModElement(self, 0)

    def one(self):
        return OModElement(self, 1)

    def elements(self):
        """All q^m elements in code order."""
        for k in range(self.size):
            yield OModElement(self, k)

    def units(self):
        q = self.residue.q
        for k in range(self.size):
            if k % q:
                yield OModElement(self, k)

    def __repr__(self):
        return "O(%r)/t^%d" % (self.residue, self.m)


@lru_cache(maxsize=None)
def _code_tables(residue: FieldSpec, m: int):
    return (_RingTables if residue.q ** m <= 256 else _WideTables)(residue, m)


def _digits(k, q, m):
    """The digit codes of code k: its m base-q digits, lowest first."""
    codes = bytearray(m)
    for j in range(m):
        k, codes[j] = divmod(k, q)
    return bytes(codes)


def _add_codes(tables, a, b):
    """Sum of two code strings, digit by digit.  With _mul_codes, the kernel
    that fills the row entries of _WideTables."""
    rows = tables.add_rows
    return bytes([rows[x][y] for x, y in zip(a, b)])


def _mul_codes(tables, a, b):
    """Schoolbook product of two code strings of one length m, truncated at
    t^m: digit i of a scales b by one translate row, added in at offset i."""
    add, mul = tables.add_rows, tables.mul_rows
    out = bytearray(b.translate(mul[a[0]]))
    m = len(a)
    for i in range(1, m):
        x = a[i]
        if x:
            scaled = b.translate(mul[x])
            for j in range(m - i):
                out[i + j] = add[out[i + j]][scaled[j]]
    return bytes(out)


def _power(tables, k, e):
    """The code of k^e (e >= 0), by square-and-multiply on mul_rows."""
    mul, out = tables.mul_rows, 1
    while e:
        if e & 1:
            out = mul[out][k]
        e >>= 1
        if e:
            k = mul[k][k]
    return out


class OModElement:
    """The element of `ring` with integer code `code`.  Two elements are
    equal exactly when their rings and codes are."""

    __slots__ = ("ring", "code")

    def __init__(self, ring: OModRing, code: int):
        self.ring = ring
        self.code = code

    def __eq__(self, other):
        if other.__class__ is not OModElement:
            return NotImplemented
        return self.code == other.code and self.ring == other.ring

    def __hash__(self):
        return hash((self.ring, self.code))

    @property
    def codes(self):
        """The t-digits as F_q codes: a bytes string of length m whose j-th
        byte is the code of the coefficient of t^j."""
        return self.ring.code_tables.decode(self.code)

    @property
    def coeffs(self):
        """The coefficients as FqElements."""
        residue = self.ring.residue
        return tuple(FqElement(residue, c) for c in self.codes)

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise MixedFields("elements of %r and %r" % (self.ring, other.ring))

    def _lookup(self, rows, other):
        self._check(other)
        return OModElement(self.ring, rows[self.code][other.code])

    def is_zero(self):
        return not self.code

    def is_unit(self):
        return self.code % self.ring.residue.q != 0

    def level(self):
        """Exact t-order: min j with a_j != 0, or m if zero."""
        codes = self.codes
        return len(codes) - len(codes.lstrip(b"\0"))

    def __add__(self, other):
        return self._lookup(self.ring.code_tables.add_rows, other)

    def __sub__(self, other):
        return self._lookup(self.ring.code_tables.sub_rows, other)

    def __neg__(self):
        return OModElement(self.ring, self.ring.code_tables.neg[self.code])

    def __mul__(self, other):
        return self._lookup(self.ring.code_tables.mul_rows, other)

    def inv(self):
        if not self.is_unit():
            raise ZeroDivisionError("non-unit %r has no inverse" % (self,))
        return OModElement(self.ring, self.ring.code_tables.inv[self.code])

    def frobenius(self, j=1):
        """Coefficient-wise a_i -> a_i^(p^j)."""
        table = _frobenius_table(self.ring.residue, j)
        return OModElement(self.ring, _undigits(self.codes.translate(table), self.ring.residue.q))

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
        return acc.descend_to(sub_residue)

    def descend_to(self, sub_residue: FieldSpec):
        """This element as one of o_sub/t^m, when every digit lies in the
        canonically embedded subfield sub_residue (MixedFields otherwise)."""
        codes = self.codes.translate(_projection_table(sub_residue, self.ring.residue))
        if sub_residue != self.ring.residue and 255 in codes:
            raise MixedFields("%r does not lie in o/t^m over %r" % (self, sub_residue))
        return OModElement(OModRing(sub_residue, self.ring.m), _undigits(codes, sub_residue.q))

    def reduce_to(self, m):
        q = self.ring.residue.q
        return OModElement(OModRing(self.ring.residue, m), self.code % q ** m)

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


# --- integer codes ---------------------------------------------------------------


class _RingTables:
    """Code-level arithmetic of o/t^m when q^m <= 256, with _Tables' row
    tables (add_rows, sub_rows, mul_rows: row c is the bytes.translate
    table of b -> c + b, c - b, c * b), neg, inv (0 on non-units), shift
    (times t) and decode (a code's digit string), all built in full.  q is the residue field's order, so code
    k is a unit exactly when k % q != 0, as in F_q.  For m = 1 the tables
    are F_q's own."""

    def __init__(self, residue: FieldSpec, m: int):
        field = _tables(residue)
        self.q = q = field.q
        self.size = size = q ** m
        self.decode = tuple(_digits(k, q, m) for k in range(size)).__getitem__
        self.shift = bytes(k * q % size for k in range(size)) + _IDENTITY[size:]
        if m == 1:
            self.neg, self.inv = field.neg, field.inv
            self.add_rows, self.sub_rows, self.mul_rows = \
                field.add_rows, field.sub_rows, field.mul_rows
            return
        self.neg = self.digitwise(field.neg)
        # the additive group is (Z/p)^(fm) on the base-p digits of k
        self.add_rows = _add_rows(field.p, field.f * m)
        self.sub_rows = tuple(self.neg.translate(row) for row in self.add_rows)
        # row a at b = b_0 + t b' is b_0 a + t (a b'): its entries b < q^k
        # come from those b' < q^(k-1), shifted, by one translate per digit b_0
        scalars = [self.digitwise(row) for row in field.mul_rows]   # b_0 times every digit
        rows = []
        for a in range(size):
            low = bytes([scalar[a] for scalar in scalars])
            row = low
            while len(row) < size:
                shifted = row.translate(self.shift)
                row = bytearray(q * len(row))
                for b0, c in enumerate(low):
                    row[b0::q] = shifted.translate(self.add_rows[c])
                row = bytes(row)
            rows.append(row + _IDENTITY[size:])
        self.mul_rows = tuple(rows)
        self.inv = bytes(row.find(1) if a % q else 0 for a, row in enumerate(rows))

    def digitwise(self, table):
        """Translation table of codes that applies the map `table` of F_q
        codes to each base-q digit."""
        q = self.q
        out = list(table[:q])
        for k in range(q, self.size):
            out.append(table[k % q] + q * out[k // q])
        return bytes(out) + _IDENTITY[self.size:]


class _Lookup(dict):
    """A table filled on first lookup: table[a] = op(a)."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __missing__(self, a):
        value = self[a] = self.op(a)
        return value


class _WideTables:
    """_RingTables' interface and codes for rings of more than 256 elements,
    with every table filled on first lookup and nothing of q^m entries
    built: a row entry runs the digit kernel (_add_codes, _mul_codes) on
    the decoded operands, and a unit's inverse is a^(|units| - 1) by
    square-and-multiply on those rows."""

    def __init__(self, residue: FieldSpec, m: int):
        field = _tables(residue)
        self.q = q = field.q
        self.size = q ** m
        self.decode = _Lookup(lambda k: _digits(k, q, m)).__getitem__

        def rows(kernel):
            def row(a):
                x = self.decode(a)
                return _Lookup(lambda b: _undigits(kernel(field, x, self.decode(b)), q))
            return _Lookup(row)

        self.add_rows, self.mul_rows = rows(_add_codes), rows(_mul_codes)
        self.sub_rows = rows(lambda f, x, y: _add_codes(f, x, y.translate(f.neg)))
        self.neg = self.digitwise(field.neg)
        units = (q - 1) * q ** (m - 1)
        self.inv = _Lookup(lambda a: _power(self, a, units - 1) if a % q else 0)
        self.shift = _Lookup(lambda a: a * q % self.size)

    def digitwise(self, table):
        return _Lookup(lambda a: _undigits(self.decode(a).translate(table), self.q))


def _determinant(tables, rows):
    """Determinant of a square matrix of integer codes (a list of rows, left
    unchanged) over F_q's _Tables or a ring's code_tables when it is a unit,
    None otherwise; code k is a unit exactly when k % tables.q != 0.  o/t^m
    is local, so the matrix is invertible exactly when its reduction mod t
    is, and then every column has a unit pivot.  Gaussian elimination with
    unit pivots (negated on a row swap, inverted only when a row below has a
    nonzero entry to clear) runs down to the last 2x2 block [[a, b], [c, d]],
    and a*d - b*c ends the product of the pivots: a 2x2 matrix needs no pivot
    search, inverse or copy.  A 1x1 matrix is its entry."""
    q, mul, sub = tables.q, tables.mul_rows, tables.sub_rows
    n = len(rows)
    if n == 1:
        det = rows[0][0]
        return det if det % q else None
    det = None
    if n > 2:
        neg, inv = tables.neg, tables.inv
        rows = [list(row) for row in rows]
        for c in range(n - 2):
            r = c
            while not rows[r][c] % q:
                r += 1
                if r == n:
                    return None
            pivot = rows[r]
            entry = pivot[c]
            if r != c:
                rows[r] = rows[c]
                entry = neg[entry]
            det = entry if det is None else mul[det][entry]
            pivot_inv = None
            for row in rows[c + 1:]:
                if row[c]:
                    if pivot_inv is None:
                        pivot_inv = mul[inv[pivot[c]]]
                    factor = mul[pivot_inv[row[c]]]
                    for k in range(c + 1, n):
                        row[k] = sub[row[k]][factor[pivot[k]]]
        rows = [row[-2:] for row in rows[-2:]]
    (a, b), (c, d) = rows
    last = sub[mul[a][d]][mul[b][c]]
    if not last % q:
        return None
    return last if det is None else mul[det][last]


@lru_cache(maxsize=None)
def _projection_table(sub: FieldSpec, big: FieldSpec):
    """Translation table of big codes to sub codes on the embedded subfield,
    255 elsewhere (no code of a proper subfield, whose q is at most 16)."""
    table = bytearray([255]) * 256
    for code, image in enumerate(_move_table(sub, big)[: sub.q]):
        table[image] = code
    return bytes(table)
