"""The component group (o/t^m)^x with its three structure maps: determinant
of the covering group GL_n(o/t^m), inverse reduced norm of the endomorphism
order, and the inverse torsion character of the Galois side; plus the full
character decomposition of the degree-zero invariants.

Characters take values in an abstract cyclic group written additively
(integers mod the unit group's exponent); no embedding into any coefficient
field is chosen.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import (CapExceeded, FrobeniusInvarianceViolation, NotAUnit,
                     NotInvertible, StructureViolation)
from .finitefield import GF, FieldSpec, _frobenius_table, _prime_factors
from .quotring import (OModElement, OModRing, _add_codes, _determinant_codes, _inv_codes,
                       _mul_codes, _pow_codes, _projection_table, _shift_codes)

ENUMERATION_CAP = 1 << 16


# --- unit group -------------------------------------------------------------------


@dataclass(eq=False)
class UnitGroup:
    """(o/t^m)^x, fully enumerated, with a verified cyclic decomposition."""

    ring: OModRing
    elements: list
    generators: list          # [(element, order)], aligned with invariant_factors
    invariant_factors: list   # [d_1, d_2, ...], d_{i+1} | d_i
    dlog: dict                # element key -> exponent tuple over the generators

    @property
    def order(self):
        return len(self.elements)

    @property
    def exponent(self):
        return self.invariant_factors[0] if self.invariant_factors else 1

    def to_json(self):
        return {
            "q": self.ring.residue.q, "m": self.ring.m, "order": self.order,
            "invariant_factors": list(self.invariant_factors),
            "generators": [list(map(int, g.lex_key())) for g, _ in self.generators],
            "elements": [list(map(int, e.lex_key())) for e in self.elements],
        }


def unit_group(pf, m) -> UnitGroup:
    """Enumerate (o/t^m)^x over the residue field GF(*pf), verify its order is
    (q-1) q^(m-1), and compute an explicit basis realizing the
    invariant-factor decomposition."""
    residue = GF(*pf)
    q = residue.q
    expected = (q - 1) * q ** (m - 1)
    if expected > ENUMERATION_CAP:
        raise CapExceeded("unit group of order %d exceeds cap %d"
                          % (expected, ENUMERATION_CAP))
    ring = OModRing(residue, m)
    elements = sorted(ring.units(), key=lambda a: a.lex_key())
    if len(elements) != expected:
        raise ArithmeticError("unit count %d != (q-1)q^(m-1) = %d"
                              % (len(elements), expected))
    one = ring.one().codes
    orders = [_element_order(ring.tables, a.codes, expected, one) for a in elements]
    factors = _invariant_factors(orders)
    gens, dlog = _generator_basis(elements, ring, factors, orders)
    return UnitGroup(ring, elements, gens, factors, dlog)


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


def _element_order(tables, a, group_order, one):
    """Order of the unit with codes a, which divides the group order: descend
    from the group order over its prime factors r, dividing by r while
    a^(order / r) = 1 (square-and-multiply powers)."""
    order = group_order
    for r in _prime_factors(group_order):
        while order % r == 0 and _pow_codes(tables, a, order // r) == one:
            order //= r
    return order


def _invariant_factors(orders):
    """Invariant factors from the element orders: for each prime p, the counts
    |{x : x^(p^k) = 1}| determine the p-partition (they equal
    p^(sum_i min(lambda_i, k))), and aligned products give the factors."""
    partitions = {}
    for p in _prime_factors(len(orders)):
        sylow = sum(1 for o in orders if _p_part(o, p) == 1)
        counts = []
        k = 1
        while True:
            c = sum(1 for o in orders if _p_part(o, p) == 1 and o <= p ** k)
            counts.append(c)
            if c == sylow:
                break
            k += 1
        partitions[p] = _partition_from_counts(counts, p)
    depth = max((len(v) for v in partitions.values()), default=0)
    factors = []
    for i in range(depth):
        d = 1
        for p, part in partitions.items():
            if i < len(part):
                d *= p ** part[i]
        factors.append(d)
    return factors


def _p_part(o, p):
    """The prime-to-p part of o (1 exactly when o is a p-power)."""
    while o % p == 0:
        o //= p
    return o


def _partition_from_counts(counts, p):
    """counts[k-1] = p^(sum_i min(lambda_i, k)) recovers the partition lambda
    (largest first)."""
    exps = [0]
    for c in counts:
        e = 0
        while p ** e < c:
            e += 1
        exps.append(e)
    # exps[k] - exps[k-1] = #{i : lambda_i >= k}
    ge = [exps[k] - exps[k - 1] for k in range(1, len(exps))]
    lam = []
    for i in range(ge[0] if ge else 0):
        lam.append(sum(1 for g in ge if g > i))
    return sorted(lam, reverse=True)


def _generator_basis(elements, ring, factors, orders):
    """Explicit generators matching the invariant factors, verified by
    exhaustive span: the exponent-tuple map must hit every unit exactly once."""
    by_order = {}
    for a, o in zip(elements, orders):
        by_order.setdefault(o, []).append(a)
    chosen = []

    def span(gens):
        table = {}
        ranges = [range(d) for _, d in gens]
        for exps in itertools.product(*ranges):
            acc = ring.one()
            for (g, _), e in zip(gens, exps):
                acc = acc * (g ** e)
            table.setdefault(acc.lex_key(), exps)
        return table

    def extend_inner(idx, gens):
        if idx == len(factors):
            table = span(gens)
            if len(table) == len(elements):
                return gens, table
            return None
        d = factors[idx]
        for cand in by_order.get(d, []):
            trial = gens + [(cand, d)]
            table = span(trial)
            if len(table) == math.prod(x for _, x in trial):
                deeper = extend_inner(idx + 1, trial)
                if deeper is not None:
                    return deeper
        return None

    found = extend_inner(0, [])
    if found is None:
        raise ArithmeticError("no generator basis found for factors %r" % (factors,))
    gens, table = found
    return gens, table


# --- characters -------------------------------------------------------------------


@dataclass(eq=False)
class Character:
    """A character of the unit group, valued additively in Z/exponent."""

    group: UnitGroup
    generator_values: tuple   # value on each generator, in Z/exponent

    def value(self, a: OModElement) -> int:
        exps = self.group.dlog[a.lex_key()]
        E = self.group.exponent
        return sum(e * v for e, v in zip(exps, self.generator_values)) % E

    def is_multiplicative(self):
        els = self.group.elements
        E = self.group.exponent
        for a in els:
            for b in els:
                if (self.value(a) + self.value(b)) % E != self.value(a * b):
                    return False
        return True

    def key(self):
        return tuple(self.generator_values)


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
    """Exact determinant of a matrix in GL_n(o/t^m), by Gaussian elimination
    with unit pivots (_determinant_codes).  NotInvertible is raised when g is
    singular modulo t, that is outside GL_n."""
    return OModElement(ring, _determinant_codes(ring.tables, [[x.codes for x in row]
                                                              for row in g]))


def _matrix_mul_codes(tables, a, b):
    """Product of two square matrices of code strings, as row lists."""
    n = len(a)
    out = []
    for row in a:
        out_row = []
        for j in range(n):
            acc = _mul_codes(tables, row[0], b[0][j])
            for k in range(1, n):
                acc = _add_codes(tables, acc, _mul_codes(tables, row[k], b[k][j]))
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


def _gl_sample(ring, n, rng):
    """A uniform sample of GL_n(o/t^m) with its determinant, both as codes:
    uniform matrices (n^2 draws each, row by row), at most 64 of them, until
    one is invertible.  A draw k is the element with base-q digits k, read
    from ring.digit_codes.  The unit-pivot elimination decides invertibility,
    so the determinant that accepts a matrix comes with it."""
    size, draw, tables = ring.size, ring.digit_codes, ring.tables
    for _ in range(64):
        rows = [[draw[rng.randrange(size)] for _ in range(n)] for _ in range(n)]
        try:
            return rows, _determinant_codes(tables, rows)
        except NotInvertible:
            pass
    raise NotInvertible("no invertible sample found")


# --- the endomorphism order --------------------------------------------------------


@dataclass(eq=False)
class DivisionOrder:
    """Elements sum_{i<n} a_i Pi^i over o'/t^m with Pi^n = t and
    Pi a = Frob(a) Pi, Frob the q-power coefficient map."""

    n: int
    big: OModRing             # o'/t^m, residue F_{q^n}
    base_residue: FieldSpec   # F_q

    @property
    def frob_step(self):
        return self.base_residue.f

    @cached_property
    def conjugations(self):
        """Translation tables of Frob^j, j = 0..n-1, on o'/t^m codes."""
        return [_frobenius_table(self.big.residue, self.frob_step * j) for j in range(self.n)]

    @cached_property
    def projection(self):
        """Translation table of o'/t^m codes to o/t^m codes on the Frobenius-fixed digits."""
        return _projection_table(self.base_residue, self.big.residue)

    def element(self, coeffs):
        coeffs = list(coeffs) + [self.big.zero()] * (self.n - len(coeffs))
        return tuple(coeffs[: self.n])

    def one(self):
        return self.element([self.big.one()])

    def pi(self):
        return self.element([self.big.zero(), self.big.one()])

    def scalar(self, a: OModElement):
        return self.element([a])


def _order_mul_codes(order, b, c):
    """b * c in the order, on tuples of o'/t^m code strings:
    a Pi^i a' Pi^j = a Frob^i(a') Pi^(i+j), and Pi^n = t."""
    big = order.big
    tables = big.tables
    n = order.n
    out = [bytes(big.m)] * n
    for i, x in enumerate(b):
        if not any(x):
            continue
        frob = order.conjugations[i]
        for j, y in enumerate(c):
            if not any(y):
                continue
            k = i + j
            coeff = _mul_codes(tables, x, y.translate(frob))
            if k >= n:
                coeff = _shift_codes(coeff, 1)      # Pi^n = t
            out[k % n] = _add_codes(tables, out[k % n], coeff)
    return tuple(out)


def _unit_sample(order, rng):
    """A uniform unit of the order as a tuple of o'/t^m code strings: uniform
    draws of n coefficients until the first is a unit.  A draw k is the
    element with base-q' digits k (big.digit_codes[k]), a unit when
    k % q' != 0."""
    q, size, draw = order.big.residue.q, order.big.size, order.big.digit_codes
    while True:
        draws = [rng.randrange(size) for _ in range(order.n)]
        if draws[0] % q:
            return tuple(draw[k] for k in draws)


def reduced_norm(order: DivisionOrder, b) -> OModElement:
    """Determinant of right multiplication by b on the basis {Pi^j}, over
    o'/t^m, checked Frobenius-invariant and returned in o/t^m.  Reduction
    mod t^m is a ring homomorphism and the determinant a polynomial in the
    entries, so this equals the determinant over any o'/t^M, M >= m,
    reduced mod t^m."""
    if not b[0].is_unit():
        raise NotAUnit("reduced norm restricted to units of the order")
    return OModElement(OModRing(order.base_residue, order.big.m),
                       _reduced_norm_codes(order, tuple(a.codes for a in b)))


def _reduced_norm_codes(order, b):
    """reduced_norm of a unit b given as o'/t^m code strings; the result is
    the o/t^m code string."""
    n = order.n
    # Pi^j * b = sum_i Frob^j(a_i) Pi^(i+j), and Pi^(i+j) = t Pi^(i+j-n) once
    # i + j >= n: column j holds each Frob^j(a_i) once, in row (i + j) mod n
    rows = [[None] * n for _ in range(n)]
    for j, frob in enumerate(order.conjugations):
        for i, a in enumerate(b):
            entry = a.translate(frob)
            if i + j >= n:
                entry = _shift_codes(entry, 1)
            rows[(i + j) % n][j] = entry
    det = _determinant_codes(order.big.tables, rows)
    # Nrd is Frob-fixed, that is its digits lie in F_q (for n = 1 Frob is the identity)
    if n > 1 and det.translate(order.conjugations[1]) != det:
        big = order.big
        raise FrobeniusInvarianceViolation("Nrd(%r) = %r is not Frobenius-fixed"
                                           % (tuple(OModElement(big, a) for a in b),
                                              OModElement(big, det)))
    return det.translate(order.projection)


# --- the action --------------------------------------------------------------------


def _action_codes(tables, det, nrd, chi):
    """Codes of det * nrd^(-1) * chi^(-1): the unit by which (g, b, tau) with
    det(g) = det, Nrd(b) = nrd and chi(tau) = chi multiplies every component."""
    return _mul_codes(tables, _mul_codes(tables, det, _inv_codes(tables, nrd)),
                      _inv_codes(tables, chi))


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
        return [(c.lex_key(), (unit * c).lex_key()) for c in self.group.elements]

    def to_json(self):
        """Action of the generator set on components, in deterministic
        (lexicographic) element order."""
        doc = {"group": self.group.to_json(), "generator_actions": []}
        for idx, g in enumerate(self.gl_gens):
            doc["generator_actions"].append({
                "kind": "gl", "index": idx,
                "matrix": [[list(map(int, entry.lex_key())) for entry in row]
                           for row in g],
                "table": [[list(map(int, src)), list(map(int, dst))]
                          for src, dst in self.component_table(g=g)],
            })
        for a in self.order.big.units():
            b = self.order.scalar(a)
            doc["generator_actions"].append({
                "kind": "order-scalar",
                "scalar": list(map(int, a.lex_key())),
                "table": [[list(map(int, src)), list(map(int, dst))]
                          for src, dst in self.component_table(b=b)],
            })
        return doc


def pi0_action_table(p, f, n, m, rng=None, pair_samples=200) -> Pi0Action:
    """Build the three structure maps, verify each is a homomorphism
    (exhaustive on generators, sampled on pair_samples random pairs), verify
    the trivial kernels, and return the assembled action.  The checks run on
    code strings: each sampled matrix comes with the determinant that
    accepted it, and elements are built only for the returned action."""
    import random as _random

    rng = rng or _random.Random(0)
    group = unit_group((p, f), m)
    ring = group.ring
    tables = ring.tables
    big = OModRing(GF(p, f * n), m)
    order = DivisionOrder(n, big, ring.residue)
    gl = gl_generators(ring, n, [g for g, _ in group.generators])
    report = {"det_pairs": 0, "nrd_pairs": 0, "action_triples": 0}
    # det is multiplicative: all generator pairs + random samples
    gl_codes = [[[x.codes for x in row] for row in g] for g in gl]
    gl_dets = [_determinant_codes(tables, g) for g in gl_codes]
    for a, det_a in zip(gl_codes, gl_dets):
        for b, det_b in zip(gl_codes, gl_dets):
            lhs = _determinant_codes(tables, _matrix_mul_codes(tables, a, b))
            if lhs != _mul_codes(tables, det_a, det_b):
                raise NotInvertible("det not multiplicative on generators")
            report["det_pairs"] += 1
    for _ in range(pair_samples):
        a, det_a = _gl_sample(ring, n, rng)
        b, det_b = _gl_sample(ring, n, rng)
        lhs = _determinant_codes(tables, _matrix_mul_codes(tables, a, b))
        if lhs != _mul_codes(tables, det_a, det_b):
            raise NotInvertible("det not multiplicative on a sampled pair")
        report["det_pairs"] += 1
    # Nrd is multiplicative on sampled unit pairs; restricted to o'^x it is
    # the coefficient-Frobenius norm, exhaustively
    for _ in range(pair_samples):
        b = _unit_sample(order, rng)
        c = _unit_sample(order, rng)
        lhs = _reduced_norm_codes(order, _order_mul_codes(order, b, c))
        rhs = _mul_codes(tables, _reduced_norm_codes(order, b), _reduced_norm_codes(order, c))
        if lhs != rhs:
            raise FrobeniusInvarianceViolation("Nrd not multiplicative on a sample")
        report["nrd_pairs"] += 1
    image = set()
    one = ring.one().codes
    zeros = (bytes(m),) * (n - 1)
    norm_one = 0
    for a in big.units():
        got = _reduced_norm_codes(order, (a.codes,) + zeros)
        want = a.norm_to(ring.residue)
        if got != want.codes:
            raise FrobeniusInvarianceViolation(
                "Nrd(%r) = %r but the coefficient norm is %r"
                % (a, OModElement(ring, got), want))
        image.add(got)
        norm_one += got == one
    if image != {u.codes for u in group.elements}:
        raise FrobeniusInvarianceViolation("Nrd on o'^x does not cover the unit group")
    report["nrd_surjective"] = True
    # SL_n (elementaries) and the scalar units of reduced norm 1 act trivially
    for det in gl_dets[: n * (n - 1)]:
        if det != one:
            raise NotInvertible("elementary generator has det != 1")
    expected_norm_one = ((p ** (f * n) - 1) // (p ** f - 1)) * \
        (p ** (f * (n - 1))) ** (m - 1)
    if norm_one != expected_norm_one:
        raise FrobeniusInvarianceViolation(
            "norm-one scalar count %d, expected %d" % (norm_one, expected_norm_one))
    report["norm_one_scalars"] = norm_one
    # action axioms on sampled triples: composing group elements composes maps
    for _ in range(min(pair_samples, 50)):
        g1, det1 = _gl_sample(ring, n, rng)
        g2, det2 = _gl_sample(ring, n, rng)
        b1 = _unit_sample(order, rng)
        b2 = _unit_sample(order, rng)
        t1, t2, c = (group.elements[rng.randrange(group.order)].codes for _ in range(3))
        by_1 = _action_codes(tables, det1, _reduced_norm_codes(order, b1), t1)
        by_2 = _action_codes(tables, det2, _reduced_norm_codes(order, b2), t2)
        by_12 = _action_codes(tables, _determinant_codes(tables, _matrix_mul_codes(tables, g1, g2)),
                              _reduced_norm_codes(order, _order_mul_codes(order, b1, b2)),
                              _mul_codes(tables, t1, t2))
        if _mul_codes(tables, by_1, _mul_codes(tables, by_2, c)) != _mul_codes(tables, by_12, c):
            raise NotInvertible("action does not compose on a sampled triple")
        report["action_triples"] += 1
    return Pi0Action(group, order, gl, report)


def h0_decomposition(p, f, m, group: UnitGroup | None = None):
    """All (q-1)q^(m-1) characters of the unit group, each with its three
    pullback descriptors evaluated on generator data: through det, through the
    inverse reduced norm, and through the reciprocity normalization
    rec(tau) = chi(tau)^(-1)."""
    group = group or unit_group((p, f), m)
    chars = all_characters(group)
    if len(chars) != group.order:
        raise StructureViolation("character count %d != group order %d"
                          % (len(chars), group.order))
    E = group.exponent
    rows = []
    for om in chars:
        gen_vals = om.generator_values
        rows.append({
            "omega_on_generators": list(gen_vals),
            "value_group": "Z/%d" % E,
            # det(diag(g,1,..)) = g: the det-pullback takes the same values
            "via_det_on_diag_generators": list(gen_vals),
            # Nrd^(-1)-pullback on a scalar unit a: -omega(N(a))
            "via_nrd_inv_on_scalar_generators": [(-v) % E for v in gen_vals],
            # rec(tau) = chi(tau)^(-1): -omega on the character value
            "via_rec_on_galois_generators": [(-v) % E for v in gen_vals],
        })
    keys = {tuple(r["omega_on_generators"]) for r in rows}
    if len(keys) != len(rows):
        raise StructureViolation("characters are not separated on the generators")
    return group, chars, rows


def characters_to_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["omega_on_generators", "value_group", "via_det",
                     "via_nrd_inv", "via_rec"])
    for r in rows:
        writer.writerow([
            ";".join(map(str, r["omega_on_generators"])),
            r["value_group"],
            ";".join(map(str, r["via_det_on_diag_generators"])),
            ";".join(map(str, r["via_nrd_inv_on_scalar_generators"])),
            ";".join(map(str, r["via_rec_on_galois_generators"])),
        ])
    return buf.getvalue()
