"""The packed series kernel of finitefield._Tables one coefficient at a time,
the way it ran before it worked on byte planes: pack joins one chunk per
coefficient, unpack reduces each slot by its own `% p` and folds each
coefficient's digit slots through a dict.  ref_mul and ref_add compose them
at slot widths wide enough for the operands used in the tests.  The oracles
for _Tables.pack, unpack, mul and add."""

from functools import lru_cache
from itertools import product


def ref_pack(tables, codes, width):
    pad = bytes((tables.stride - tables.f) * width)
    return int.from_bytes(b"".join(b"".join(d.to_bytes(width, "little")
                                            for d in tables.elements[c].coeffs) + pad
                                   for c in codes), "little")


@lru_cache(maxsize=None)
def ref_fold(spec):
    """Reduced digit slots of a packed product coefficient (a polynomial in x
    of degree < 2f - 1) -> the code of its class mod the modulus."""
    f = spec.f
    x_high = [(spec.gen() ** d).coeffs for d in range(f, 2 * f - 1)]
    fold = {}
    for high in product(range(spec.p), repeat=f - 1):
        extra = [sum(h * x[i] for h, x in zip(high, x_high)) for i in range(f)]
        for a in spec.elements():
            folded = spec.element([c + e for c, e in zip(a.coeffs, extra)])
            fold[bytes(a.coeffs) + bytes(high)] = folded.to_int()
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
