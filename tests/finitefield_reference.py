"""F_q arithmetic on digit tuples, the way FqElement computed before it held
one integer code: an element is the tuple of its f coordinates in the
polynomial basis, a product is a schoolbook product reduced by the monic
modulus, and a power is square-and-multiply on those products.  The oracle
for FqElement's operations, for the rows of finitefield._Tables and for the
packed kernel's fold.

is_irreducible is the Rabin test, the oracle for the irreducibility check
FieldSpec makes at construction by its primitive-element search."""

from omod.finitefield import _prime_factors


def poly_mul_mod(a, b, low, p):
    """Multiply little-endian coefficient tuples modulo x^f + low(x)."""
    f = len(low)
    c = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] = (c[i + j] + x * y) % p
    for k in range(2 * f - 2, f - 1, -1):
        t, c[k] = c[k], 0
        for i, m in enumerate(low):
            c[k - f + i] = (c[k - f + i] - t * m) % p
    return tuple(c[:f])


def poly_pow_mod(base, e, low, p):
    r = (1,) + (0,) * (len(low) - 1)
    b = tuple(base)
    while e:
        if e & 1:
            r = poly_mul_mod(r, b, low, p)
        b = poly_mul_mod(b, b, low, p)
        e >>= 1
    return r


def poly_gcd_degree(a, b, p):
    """Degree of gcd(a, b) over F_p, for coefficient lists lowest first."""
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
        t = a[da] * pow(b[db], p - 2, p) % p
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - t * b[i]) % p


def is_irreducible(low, p):
    """Rabin test for the monic polynomial x^f + low(x) over F_p: x^(p^f) = x
    mod it, and gcd(it, x^(p^(f/r)) - x) = 1 for each prime r dividing f."""
    f = len(low)
    if f == 1:
        return True
    x = (0, 1) + (0,) * (f - 2)
    if poly_pow_mod(x, p ** f, low, p) != x:
        return False
    for r in _prime_factors(f):
        xr = poly_pow_mod(x, p ** (f // r), low, p)
        diff = [(xr[i] - x[i]) % p for i in range(f)]
        if poly_gcd_degree(list(low) + [1], diff, p) > 0:
            return False
    return True


# --- elements of one field spec as digit tuples ----------------------------------


def digits(spec, k):
    """The digit tuple of code k: its f base-p digits, lowest first."""
    return tuple(k // spec.p ** i % spec.p for i in range(spec.f))


def code(spec, a):
    """The code of the digit tuple a."""
    return sum(d * spec.p ** i for i, d in enumerate(a))


def ref_add(spec, a, b):
    return tuple((x + y) % spec.p for x, y in zip(a, b))


def ref_sub(spec, a, b):
    return tuple((x - y) % spec.p for x, y in zip(a, b))


def ref_neg(spec, a):
    return tuple(-x % spec.p for x in a)


def ref_mul(spec, a, b):
    return poly_mul_mod(a, b, spec.modulus, spec.p)


def ref_inv(spec, a):
    """a^(q - 2); ZeroDivisionError for zero."""
    if not any(a):
        raise ZeroDivisionError("inverse of zero in %r" % (spec,))
    return poly_pow_mod(a, spec.q - 2, spec.modulus, spec.p)


def ref_pow(spec, a, e):
    """a^e, a^-e = inv(a)^e, and 0^0 = 1."""
    if e < 0:
        return ref_pow(spec, ref_inv(spec, a), -e)
    return poly_pow_mod(a, e, spec.modulus, spec.p)


def ref_frobenius(spec, a, j=1):
    """a -> a^(p^j), j taken mod f."""
    return ref_pow(spec, a, spec.p ** (j % spec.f))
