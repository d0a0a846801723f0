"""The packed series kernel of finitefield._Tables one coefficient at a time,
the way it ran before it worked on byte planes: pack joins one chunk per
coefficient, unpack reduces each slot by its own `% p` and folds each
coefficient's digit slots through a dict.  Digits, powers of x and the fold
come from the digit-tuple oracle (finitefield_reference), never from the
code tables under test.  ref_mul and ref_add compose them at slot widths
wide enough for the operands used in the tests.  The oracles for
_Tables.pack, unpack, mul and add.

RefPowerTable is series._PowerTable.power the way it ran before the base-p
chains: every power from its neighbour by one product.  The oracle for the
powers a substitution reads."""

from functools import lru_cache
from itertools import product

from omod.series import LocalFieldElement

from finitefield_reference import code, digits, poly_pow_mod


def ref_pack(tables, codes, width):
    pad = bytes((tables.stride - tables.f) * width)
    return int.from_bytes(b"".join(b"".join(d.to_bytes(width, "little")
                                            for d in digits(tables.spec, c)) + pad
                                   for c in codes), "little")


@lru_cache(maxsize=None)
def ref_fold(spec):
    """Reduced digit slots of a packed product coefficient (a polynomial in x
    of degree < 2f - 1) -> the code of its class mod the modulus."""
    p, f = spec.p, spec.f
    x_high = [poly_pow_mod(digits(spec, p), d, spec.modulus, p) for d in range(f, 2 * f - 1)]
    fold = {}
    for high in product(range(p), repeat=f - 1):
        extra = [sum(h * x[i] for h, x in zip(high, x_high)) for i in range(f)]
        for k in range(spec.q):
            a = digits(spec, k)
            folded = tuple((c + e) % p for c, e in zip(a, extra))
            fold[bytes(a) + bytes(high)] = code(spec, folded)
    return fold


def ref_unpack(tables, value, n, width):
    size = n * tables.stride * width
    raw = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    digits = bytes([int.from_bytes(raw[i:i + width], "little") % tables.p
                    for i in range(0, size, width)])
    if tables.stride == 1:
        return digits
    s, fold = tables.stride, ref_fold(tables.spec)
    return bytes([fold[digits[i:i + s]] for i in range(0, len(digits), s)])


def ref_mul(tables, a, b, n, width=8):
    a, b = a[:n], b[:n]
    return ref_unpack(tables, ref_pack(tables, a, width) * ref_pack(tables, b, width), n, width)


def ref_add(tables, a, ia, b, ib, width=2):
    shift = 8 * tables.stride * width
    x = (ref_pack(tables, a, width) << shift * ia) + (ref_pack(tables, b, width) << shift * ib)
    return ref_unpack(tables, x, max(ia + len(a), ib + len(b)), width)


class RefPowerTable:
    """U^0 = 1 and U^(k+1) = U^k * U upward, U^-1 = U.inv() and
    U^(k-1) = U^k * U^-1 downward, each as (leading exponent, codes,
    precision)."""

    def __init__(self):
        self.powers = {0: (0, b"\x01", None)}
        self.lo = self.hi = 0                 # the exponents held are lo..hi

    def power(self, U, k):
        powers = self.powers
        while k > self.hi:
            y = LocalFieldElement(U.field, *powers[self.hi]) * U
            self.hi += 1
            powers[self.hi] = (y.leading_exponent, y.codes, y.precision)
        while k < self.lo:
            step = LocalFieldElement(U.field, *powers[-1]) if self.lo < 0 else U.inv()
            y = LocalFieldElement(U.field, *powers[self.lo]) * step
            self.lo -= 1
            powers[self.lo] = (y.leading_exponent, y.codes, y.precision)
        return powers[k]
