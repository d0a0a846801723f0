"""The component group (o/t^m)^x with its three structure maps: determinant
of the covering group GL_n(o/t^m), inverse reduced norm of the endomorphism
order, and the inverse torsion character of the Galois side; plus the full
character decomposition of the degree-zero invariants.

Characters take values in an abstract cyclic group written additively
(integers mod the unit group's exponent); no embedding into any coefficient
field is chosen.

The generator search, the determinant, the reduced norm and
pi0_action_table's checks run on quotring's one integer code per element
(code k has the base-q digits of k as its t-digits) and its code_tables.
An OModElement is its ring and that code, so these maps read x.code, wrap
a result code k as OModElement(ring, k), and take a randrange draw k as the
element with code k, with no conversion either way.

The reduced norm of b = sum_i b_i Pi^i is the determinant of right
multiplication by b on the basis {Pi^j}: Pi^j b = sum_i Frob^j(b_i) Pi^(i+j),
with Pi^n = t.  At n = 2 the matrix is [[b0, t Frob(b1)], [b1, Frob(b0)]],
so Nrd(b0 + b1 Pi) = b0 Frob(b0) - t Frob(b1) b1, and the order product is
(b0 + b1 Pi)(c0 + c1 Pi) = (b0 c0 + t b1 Frob(c1)) + (b0 c1 + b1 Frob(c0)) Pi;
both are computed in that closed form.  At n >= 3 the norm eliminates on
the n x n matrix and the product sums its n^2 terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import (CapExceeded, FrobeniusInvarianceViolation, NotAUnit,
                     NotInvertible, StructureViolation)
from .finitefield import GF, FieldSpec, _frobenius_table, _prime_factors, _undigits
from .quotring import OModElement, OModRing, _determinant, _move_table, _power

ENUMERATION_CAP = 1 << 16


# --- unit group -------------------------------------------------------------------


@dataclass(eq=False)
class UnitGroup:
    """(o/t^m)^x, fully enumerated in code order, with a verified cyclic
    decomposition; the tests build its discrete logs and JSON document."""

    ring: OModRing
    elements: list
    generators: list          # [(element, order)], aligned with invariant_factors
    invariant_factors: list   # [d_1, d_2, ...], d_{i+1} | d_i

    @property
    def order(self):
        return len(self.elements)

    @property
    def exponent(self):
        return self.invariant_factors[0] if self.invariant_factors else 1


def unit_group(pf, m) -> UnitGroup:
    """Enumerate (o/t^m)^x over the residue field GF(*pf) and realize its
    closed-form invariant factors (expected_invariant_factors) by explicit
    generators.  The factors must multiply to (q-1) q^(m-1), each dividing the
    one before it, and the units must number (q-1) q^(m-1); _generator_basis
    then finds generators of exactly those orders whose span is the whole
    group, which exist only when the factors are the group's own (invariant
    factors are unique).  Each failure raises StructureViolation."""
    residue = GF(*pf)
    q = residue.q
    expected = (q - 1) * q ** (m - 1)
    if expected > ENUMERATION_CAP:
        raise CapExceeded("unit group of order %d exceeds cap %d"
                          % (expected, ENUMERATION_CAP))
    factors = expected_invariant_factors(residue.p, residue.f, m)
    if math.prod(factors) != expected or any(d % e for d, e in zip(factors, factors[1:])):
        raise StructureViolation("invariant factors %r are not a divisor chain of product"
                                 " (q-1)q^(m-1) = %d" % (factors, expected))
    ring = OModRing(residue, m)
    elements = sorted(ring.units(), key=lambda a: a.codes)
    if len(elements) != expected:
        raise StructureViolation("unit count %d != (q-1)q^(m-1) = %d"
                                 % (len(elements), expected))
    return UnitGroup(ring, elements, _generator_basis(elements, ring, factors), factors)


def expected_invariant_factors(p, f, m):
    """Invariant factors of (o/t^m)^x from its structure, without enumerating
    it: F_q^x x U^1/U^m, where F_q^x is cyclic of order q - 1 and U^1/U^m is,
    for each j < m prime to p, f copies of Z/p^(k_j), k_j the least k with
    j p^k >= m."""
    q = p ** f
    exponents = {}                    # prime -> exponents of its cyclic factors
    for r in _prime_factors(q - 1):
        e, rest = 0, q - 1
        while rest % r == 0:
            e, rest = e + 1, rest // r
        exponents[r] = [e]
    for j in range(1, m):
        if j % p:
            k = 1
            while j * p ** k < m:
                k += 1
            exponents.setdefault(p, []).extend([k] * f)
    depth = max((len(v) for v in exponents.values()), default=0)
    for v in exponents.values():
        v.sort(reverse=True)
    return [math.prod(r ** v[i] for r, v in exponents.items() if i < len(v))
            for i in range(depth)]


def _generator_basis(elements, ring, factors):
    """Explicit generators [(element, order)] for the invariant factors, by
    depth-first search over `elements` in their order.  For factor d only
    candidates of exact order d are tried (c^d = 1 and c^(d/r) != 1 for each
    prime r | d, by square-and-multiply powers).  A candidate c extends the
    span S of the generators before it to S c^0, ..., S c^(d-1), and is
    rejected at the first collision: the span has size prod(factors) exactly
    when the exponent-tuple map is injective.  The final span must hit every
    unit exactly once, or StructureViolation is raised.  The search runs on
    the ring's integer codes, where one is 1."""
    tables = ring.code_tables
    mul = tables.mul_rows

    def has_order(c, d):
        return (_power(tables, c, d) == 1
                and all(_power(tables, c, d // r) != 1 for r in _prime_factors(d)))

    def extend(span, c, d):
        powers = [1]
        for _ in range(d - 1):
            powers.append(mul[powers[-1]][c])
        out = set()
        for s in span:
            row = mul[s]
            for power in powers:
                key = row[power]
                if key in out:
                    return None
                out.add(key)
        return out

    def search(idx, gens, span):
        if idx == len(factors):
            return gens if len(span) == len(elements) else None
        d = factors[idx]
        for cand in elements:
            if not has_order(cand.code, d):
                continue
            trial = extend(span, cand.code, d)
            if trial is not None:
                found = search(idx + 1, gens + [(cand, d)], trial)
                if found is not None:
                    return found
        return None

    found = search(0, [], {1})
    if found is None:
        raise StructureViolation("no generator basis found for factors %r" % (factors,))
    return found


# --- characters -------------------------------------------------------------------


@dataclass(eq=False)
class Character:
    """A character of the unit group, valued additively in Z/exponent."""

    group: UnitGroup
    generator_values: tuple   # value on each generator, in Z/exponent


def all_characters(group: UnitGroup):
    """All |G| characters: on a generator of order d the value runs over the
    multiples of exponent/d."""
    E = group.exponent
    ranges = []
    for _, d in group.generators:
        step = E // d
        ranges.append([step * i for i in range(d)])
    return [Character(group, tuple(vals)) for vals in itertools.product(*ranges)]


# --- matrices over o/t^m -----------------------------------------------------------


def matrix_determinant(g, ring: OModRing) -> OModElement:
    """Exact determinant of a matrix in GL_n(o/t^m), by unit-pivot
    elimination on the ring's codes that ends with a*d - b*c
    (_determinant).  The kernel reports a non-unit determinant as None, and
    NotInvertible is raised then: g is singular modulo t, that is outside
    GL_n."""
    det = _determinant(ring.code_tables, [[x.code for x in row] for row in g])
    if det is None:
        raise NotInvertible("matrix is singular modulo t: determinant is not a unit")
    return OModElement(ring, det)


def _matrix_mul(tables, a, b):
    """Product of two square matrices of codes, as row lists."""
    add, mul = tables.add_rows, tables.mul_rows
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = mul[row[0]][col[0]]
            for x, y in zip(row[1:], col[1:]):
                acc = add[acc][mul[x][y]]
            out_row.append(acc)
        out.append(out_row)
    return out


def gl_generators(ring: OModRing, n: int, unit_gens):
    """Elementary matrices plus diagonal unit insertions: generators of
    GL_n(o/t^m)."""
    out = []
    one, zero = ring.one(), ring.zero()

    def build(fill):
        return tuple(tuple(fill(i, j) for j in range(n)) for i in range(n))

    for i in range(n):
        for j in range(n):
            if i != j:
                out.append(build(lambda r, c, i=i, j=j:
                                 one if r == c or (r == i and c == j) else zero))
    for g in unit_gens:
        out.append(build(lambda r, c, g=g: (g if r == 0 else one) if r == c else zero))
    if not out:
        out.append(build(lambda r, c: one if r == c else zero))
    return out


# --- the endomorphism order --------------------------------------------------------


@dataclass(eq=False)
class DivisionOrder:
    """Elements sum_{i<n} a_i Pi^i over o'/t^m with Pi^n = t and
    Pi a = Frob(a) Pi, Frob the q-power coefficient map."""

    n: int
    big: OModRing             # o'/t^m, residue F_{q^n}
    base_residue: FieldSpec   # F_q

    @cached_property
    def ring(self):
        """o/t^m, where the reduced norm lies."""
        return OModRing(self.base_residue, self.big.m)

    @cached_property
    def conjugations(self):
        """Frob^j, j = 0..n-1, on o'/t^m codes (big.code_tables)."""
        tables = self.big.code_tables
        return [tables.digitwise(_frobenius_table(self.big.residue, self.base_residue.f * j))
                for j in range(self.n)]

    @cached_property
    def projection(self):
        """o'/t^m codes to o/t^m codes on the Frobenius-fixed elements: the
        inverse of the embedding o/t^m -> o'/t^m."""
        decode, q = self.ring.code_tables.decode, self.big.residue.q
        embedding = _move_table(self.base_residue, self.big.residue)
        return {_undigits(decode(k).translate(embedding), q): k for k in range(self.ring.size)}

    def element(self, coeffs):
        coeffs = list(coeffs) + [self.big.zero()] * (self.n - len(coeffs))
        return tuple(coeffs[: self.n])

    def scalar(self, a: OModElement):
        return self.element([a])


def _order_mul(order, b, c):
    """b * c in the order, on tuples of o'/t^m codes:
    a Pi^i a' Pi^j = a Frob^i(a') Pi^(i+j), and Pi^n = t; at n = 2 in the
    closed form of the module docstring."""
    tables = order.big.code_tables
    add, mul, shift = tables.add_rows, tables.mul_rows, tables.shift
    n = order.n
    if n == 2:
        (b0, b1), (c0, c1), frob = b, c, order.conjugations[1]
        row = mul[b1]
        return (add[mul[b0][c0]][shift[row[frob[c1]]]], add[mul[b0][c1]][row[frob[c0]]])
    out = [0] * n
    for i, x in enumerate(b):
        if not x:
            continue
        row, frob = mul[x], order.conjugations[i]
        for j, y in enumerate(c):
            if not y:
                continue
            k = i + j
            coeff = row[frob[y]]
            if k >= n:
                k -= n
                coeff = shift[coeff]                 # Pi^n = t
            out[k] = add[out[k]][coeff]
    return tuple(out)


def reduced_norm(order: DivisionOrder, b) -> OModElement:
    """Determinant of right multiplication by b on the basis {Pi^j}, over
    o'/t^m, checked Frobenius-invariant and returned in o/t^m.  Reduction
    mod t^m is a ring homomorphism and the determinant a polynomial in the
    entries, so this equals the determinant over any o'/t^M, M >= m,
    reduced mod t^m."""
    if not b[0].is_unit():
        raise NotAUnit("reduced norm restricted to units of the order")
    return OModElement(order.ring, _reduced_norm(order, tuple(a.code for a in b)))


def _reduced_norm(order, b):
    """reduced_norm of a unit b given as o'/t^m codes; the result is the
    o/t^m code."""
    n, tables = order.n, order.big.code_tables
    if n == 2:
        # the loop below would build [[b0, t Frob(b1)], [b1, Frob(b0)]], and
        # _determinant would return its a*d - b*c
        (b0, b1), frob, mul = b, order.conjugations[1], tables.mul_rows
        det = tables.sub_rows[mul[b0][frob[b0]]][mul[tables.shift[frob[b1]]][b1]]
        if not det % tables.q:
            det = None
    else:
        # Pi^j * b = sum_i Frob^j(a_i) Pi^(i+j), and Pi^(i+j) = t Pi^(i+j-n) once
        # i + j >= n: column j holds each Frob^j(a_i) once, in row (i + j) mod n
        rows = [[0] * n for _ in range(n)]
        for j, frob in enumerate(order.conjugations):
            for i, a in enumerate(b):
                entry = frob[a]
                if i + j >= n:
                    entry = tables.shift[entry]
                rows[(i + j) % n][j] = entry
        det = _determinant(tables, rows)
    if det is None:
        raise NotAUnit("reduced norm restricted to units of the order")
    # Nrd is Frob-fixed, that is its digits lie in F_q (for n = 1 Frob is the identity)
    if n > 1 and order.conjugations[1][det] != det:
        big = order.big
        raise FrobeniusInvarianceViolation("Nrd(%r) = %r is not Frobenius-fixed" % (
            tuple(OModElement(big, a) for a in b), OModElement(big, det)))
    return order.projection[det]


# --- the action --------------------------------------------------------------------


def _draws(rng, size, count):
    """count draws of rng.randrange(size), by randrange's own rule: each is
    the first of rng.getrandbits(size.bit_length()) below size.  The values
    and the generator's state afterwards are those of count randrange
    calls."""
    getrandbits, k = rng.getrandbits, size.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= size:
            r = getrandbits(k)
        out.append(r)
    return out


def _gl_sample(order, rng):
    """A uniform sample of GL_n(o/t^m), as a list of code rows, with its
    determinant: uniform matrices (n^2 randrange draws each, row by row, a
    draw k being the element with code k), at most 64 of them, until one is
    invertible.  The unit-pivot elimination decides invertibility (None on a
    singular matrix), so the determinant that accepts a matrix comes with
    it."""
    n, ring = order.n, order.ring
    for _ in range(64):
        entries = _draws(rng, ring.size, n * n)
        rows = [entries[i:i + n] for i in range(0, n * n, n)]
        det = _determinant(ring.code_tables, rows)
        if det is not None:
            return rows, det
    raise NotInvertible("no invertible sample found")


def _unit_sample(order, rng):
    """A uniform unit of the order, as a tuple of o'/t^m codes: uniform
    draws of n coefficients until the first is a unit, that is a draw k
    with k % q' != 0."""
    big = order.big
    while True:
        draws = _draws(rng, big.size, order.n)
        if draws[0] % big.residue.q:
            return tuple(draws)


def _norm(order, a):
    """The coefficient norm of a unit code a of o'/t^m (the product of its
    Frobenius conjugates), as an o/t^m code."""
    mul = order.big.code_tables.mul_rows
    acc = a
    for frob in order.conjugations[1:]:
        acc = mul[acc][frob[a]]
    return order.projection[acc]


@dataclass(eq=False)
class Pi0Action:
    """The verified action data: (g, b, tau) acts on the unit group by
    multiplication by det(g) * Nrd(b)^(-1) * chi(tau)^(-1)."""

    group: UnitGroup
    order: DivisionOrder
    gl_gens: list
    report: dict = dc_field(default_factory=dict)

    def component_table(self, g=None, b=None, tau_chi=None):
        """Full table component -> image component for one group element."""
        ring = self.group.ring
        unit = ring.one()
        if g is not None:
            unit = matrix_determinant(g, ring) * unit
        if b is not None:
            unit = reduced_norm(self.order, b).inv() * unit
        if tau_chi is not None:
            unit = tau_chi.inv() * unit
        return [(tuple(c.codes), tuple((unit * c).codes)) for c in self.group.elements]


def pi0_action_table(p, f, n, m, rng=None, pair_samples=200,
                     group: UnitGroup | None = None) -> Pi0Action:
    """Build the three structure maps, verify each is a homomorphism
    (exhaustive on generators, sampled on pair_samples random pairs), verify
    the trivial kernels, and return the assembled action.  The checks run on
    each ring's integer codes, where a draw k is the element with code k:
    each sampled matrix comes with the determinant that accepted it, and
    elements are built only for the returned action."""
    import random as _random

    rng = rng or _random.Random(0)
    group = group or unit_group((p, f), m)
    ring = group.ring
    big = OModRing(GF(p, f * n), m)
    order = DivisionOrder(n, big, ring.residue)
    gl = gl_generators(ring, n, [g for g, _ in group.generators])
    tables = ring.code_tables
    mul, inv = tables.mul_rows, tables.inv

    def action(det, nrd, chi):
        """det * nrd^(-1) * chi^(-1): the unit by which (g, b, tau) with
        det(g) = det, Nrd(b) = nrd and chi(tau) = chi multiplies every
        component."""
        return mul[mul[det][inv[nrd]]][inv[chi]]

    report = {"det_pairs": 0, "nrd_pairs": 0, "action_triples": 0}
    # det is multiplicative: all generator pairs + random samples
    gl_codes = [[[x.code for x in row] for row in g] for g in gl]
    gl_dets = [_determinant(tables, g) for g in gl_codes]
    for a, det_a in zip(gl_codes, gl_dets):
        for b, det_b in zip(gl_codes, gl_dets):
            if _determinant(tables, _matrix_mul(tables, a, b)) != mul[det_a][det_b]:
                raise NotInvertible("det not multiplicative on generators")
            report["det_pairs"] += 1
    for _ in range(pair_samples):
        a, det_a = _gl_sample(order, rng)
        b, det_b = _gl_sample(order, rng)
        if _determinant(tables, _matrix_mul(tables, a, b)) != mul[det_a][det_b]:
            raise NotInvertible("det not multiplicative on a sampled pair")
        report["det_pairs"] += 1
    # Nrd is multiplicative on sampled unit pairs; restricted to o'^x it is
    # the coefficient-Frobenius norm, exhaustively
    for _ in range(pair_samples):
        b = _unit_sample(order, rng)
        c = _unit_sample(order, rng)
        if _reduced_norm(order, _order_mul(order, b, c)) != \
                mul[_reduced_norm(order, b)][_reduced_norm(order, c)]:
            raise FrobeniusInvarianceViolation("Nrd not multiplicative on a sample")
        report["nrd_pairs"] += 1
    image = set()
    norm_one = 0
    for a in (k for k in range(big.size) if k % big.residue.q):
        got, want = _reduced_norm(order, (a,) + (0,) * (n - 1)), _norm(order, a)
        if got != want:
            raise FrobeniusInvarianceViolation(
                "Nrd(%r) = %r but the coefficient norm is %r"
                % (OModElement(big, a), OModElement(ring, got), OModElement(ring, want)))
        image.add(got)
        norm_one += got == 1
    units = [u.code for u in group.elements]
    if image != set(units):
        raise FrobeniusInvarianceViolation("Nrd on o'^x does not cover the unit group")
    report["nrd_surjective"] = True
    # SL_n (elementaries) and the scalar units of reduced norm 1 act trivially
    for det_g in gl_dets[: n * (n - 1)]:
        if det_g != 1:
            raise NotInvertible("elementary generator has det != 1")
    expected_norm_one = ((p ** (f * n) - 1) // (p ** f - 1)) * \
        (p ** (f * (n - 1))) ** (m - 1)
    if norm_one != expected_norm_one:
        raise FrobeniusInvarianceViolation(
            "norm-one scalar count %d, expected %d" % (norm_one, expected_norm_one))
    report["norm_one_scalars"] = norm_one
    # action axioms on sampled triples: composing group elements composes maps
    for _ in range(min(pair_samples, 50)):
        g1, det1 = _gl_sample(order, rng)
        g2, det2 = _gl_sample(order, rng)
        b1 = _unit_sample(order, rng)
        b2 = _unit_sample(order, rng)
        t1, t2, c = (units[k] for k in _draws(rng, group.order, 3))
        by_1 = action(det1, _reduced_norm(order, b1), t1)
        by_2 = action(det2, _reduced_norm(order, b2), t2)
        by_12 = action(_determinant(tables, _matrix_mul(tables, g1, g2)),
                       _reduced_norm(order, _order_mul(order, b1, b2)), mul[t1][t2])
        if mul[by_1][mul[by_2][c]] != mul[by_12][c]:
            raise NotInvertible("action does not compose on a sampled triple")
        report["action_triples"] += 1
    return Pi0Action(group, order, gl, report)


def h0_decomposition(p, f, m, group: UnitGroup | None = None):
    """All (q-1)q^(m-1) characters of the unit group, each with its values
    on the group's generators."""
    group = group or unit_group((p, f), m)
    chars = all_characters(group)
    if len(chars) != group.order:
        raise StructureViolation("character count %d != group order %d"
                          % (len(chars), group.order))
    E = group.exponent
    rows = []
    for om in chars:
        rows.append({"omega_on_generators": list(om.generator_values),
                     "value_group": "Z/%d" % E})
    keys = {tuple(r["omega_on_generators"]) for r in rows}
    if len(keys) != len(rows):
        raise StructureViolation("characters are not separated on the generators")
    return group, chars, rows


def characters_to_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["omega_on_generators", "value_group"])
    for r in rows:
        writer.writerow([";".join(map(str, r["omega_on_generators"])), r["value_group"]])
    return buf.getvalue()
