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

from .errors import (CapExceeded, FrobeniusInvarianceViolation, NotAUnit,
                     NotInvertible, StructureViolation)
from .finitefield import GF, FieldSpec, _frobenius_table, _prime_factors
from .quotring import (OModElement, OModRing, _add_codes, _inv_codes, _mul_codes, _shift_codes,
                       _sub_codes)

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
    one_key = ring.one().lex_key()
    orders = [_element_order(a, one_key) for a in elements]
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


def _element_order(a, one_key):
    k = 1
    acc = a
    while acc.lex_key() != one_key:
        acc = acc * a
        k += 1
    return k


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
    with unit pivots.  o/t^m is local with residue field F_q, so g is
    invertible exactly when its reduction mod t is, and then every column
    has a unit pivot.  Otherwise the determinant is a non-unit, which no
    caller uses, and NotInvertible is raised (g outside GL_n)."""
    return OModElement(ring, _determinant_codes(ring.tables, [[x.codes for x in row]
                                                              for row in g]))


def _determinant_codes(tables, rows):
    """matrix_determinant on a matrix of code strings, given as a list of
    row lists that it overwrites; the result is a code string."""
    n = len(rows)
    det = b"\x01" + bytes(len(rows[0][0]) - 1)
    for c in range(n):
        r = c
        while not rows[r][c][0]:
            r += 1
            if r == n:
                raise NotInvertible("matrix is singular modulo t: determinant is not a unit")
        pivot = rows[r]
        if r != c:
            rows[r] = rows[c]
            det = det.translate(tables.neg)
        det = _mul_codes(tables, det, pivot[c])
        pivot_inv = _inv_codes(tables, pivot[c])
        for row in rows[c + 1:]:
            if any(row[c]):
                factor = _mul_codes(tables, row[c], pivot_inv)
                for k in range(c + 1, n):
                    row[k] = _sub_codes(tables, row[k], _mul_codes(tables, factor, pivot[k]))
    return det


def matrix_mul(a, b, ring):
    tables = ring.tables
    a = [[x.codes for x in row] for row in a]
    b = [[x.codes for x in row] for row in b]
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = _mul_codes(tables, a[i][0], b[0][j])
            for k in range(1, n):
                acc = _add_codes(tables, acc, _mul_codes(tables, a[i][k], b[k][j]))
            row.append(OModElement(ring, acc))
        out.append(tuple(row))
    return tuple(out)


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


def random_gl_element(ring, n, rng, max_tries=64):
    """A uniform sample of GL_n(o/t^m): uniform matrices until one is
    invertible mod t.  A draw k is the element with base-q digits k, so its
    residue code is k % q; only the accepted matrix is built."""
    q, size = ring.residue.q, ring.size
    for _ in range(max_tries):
        draws = [[rng.randrange(size) for _ in range(n)] for _ in range(n)]
        if ring.tables.invertible([[k % q for k in row] for row in draws]):
            return tuple(tuple(ring.from_int_digits(k) for k in row) for row in draws)
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

    def element(self, coeffs):
        coeffs = list(coeffs) + [self.big.zero()] * (self.n - len(coeffs))
        return tuple(coeffs[: self.n])

    def one(self):
        return self.element([self.big.one()])

    def pi(self):
        return self.element([self.big.zero(), self.big.one()])

    def scalar(self, a: OModElement):
        return self.element([a])

    def mul(self, b, c):
        big = self.big
        tables = big.tables
        n = self.n
        out = [bytes(big.m)] * n
        for i, bi in enumerate(b):
            x = bi.codes
            if not any(x):
                continue
            frob = _frobenius_table(big.residue, self.frob_step * i)
            for j, cj in enumerate(c):
                y = cj.codes
                if not any(y):
                    continue
                k = i + j
                coeff = _mul_codes(tables, x, y.translate(frob))
                if k >= n:
                    coeff = _shift_codes(coeff, 1)      # Pi^n = t
                out[k % n] = _add_codes(tables, out[k % n], coeff)
        return tuple(OModElement(big, codes) for codes in out)

    def is_unit(self, b):
        return b[0].is_unit()

    def key(self, b):
        return tuple(x.lex_key() for x in b)

    def random_unit(self, rng):
        """Uniform draws of n coefficients until the first is a unit; a draw
        k is the element with base-q' digits k, a unit when k % q' != 0."""
        q, size = self.big.residue.q, self.big.size
        while True:
            draws = [rng.randrange(size) for _ in range(self.n)]
            if draws[0] % q:
                return tuple(self.big.from_int_digits(k) for k in draws)


def reduced_norm(order: DivisionOrder, b) -> OModElement:
    """Determinant of right multiplication by b on the basis {Pi^j}, over
    o'/t^m, checked Frobenius-invariant and returned in o/t^m.  Reduction
    mod t^m is a ring homomorphism and the determinant a polynomial in the
    entries, so this equals the determinant over any o'/t^M, M >= m,
    reduced mod t^m."""
    if not order.is_unit(b):
        raise NotAUnit("reduced norm restricted to units of the order")
    n = order.n
    big = order.big
    # Pi^j * b = sum_i Frob^j(a_i) Pi^(i+j), and Pi^(i+j) = t Pi^(i+j-n) once
    # i + j >= n: column j holds each Frob^j(a_i) once, in row (i + j) mod n
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        frob = _frobenius_table(big.residue, order.frob_step * j)
        for i, a in enumerate(b):
            entry = a.codes.translate(frob)
            if i + j >= n:
                entry = _shift_codes(entry, 1)
            rows[(i + j) % n][j] = entry
    det = _determinant_codes(big.tables, rows)
    if det.translate(_frobenius_table(big.residue, order.frob_step)) != det:
        raise FrobeniusInvarianceViolation("Nrd(%r) = %r is not Frobenius-fixed"
                                           % (b, OModElement(big, det)))
    return OModElement(big, det).descend_to(order.base_residue)


# --- the action --------------------------------------------------------------------


@dataclass(eq=False)
class Pi0Action:
    """The verified action data: (g, b, tau) acts on the unit group by
    multiplication by det(g) * Nrd(b)^(-1) * chi(tau)^(-1)."""

    group: UnitGroup
    order: DivisionOrder
    gl_gens: list
    report: dict = dc_field(default_factory=dict)

    def act(self, c: OModElement, g=None, b=None, tau_chi=None) -> OModElement:
        out = c
        if g is not None:
            out = matrix_determinant(g, self.group.ring) * out
        if b is not None:
            out = reduced_norm(self.order, b).inv() * out
        if tau_chi is not None:
            out = tau_chi.inv() * out
        return out

    def component_table(self, g=None, b=None, tau_chi=None):
        """Full table component -> image component for one group element."""
        rows = []
        for c in self.group.elements:
            rows.append((c.lex_key(), self.act(c, g, b, tau_chi).lex_key()))
        return rows

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
    the trivial kernels, and return the assembled action."""
    import random as _random

    rng = rng or _random.Random(0)
    group = unit_group((p, f), m)
    ring = group.ring
    big = OModRing(GF(p, f * n), m)
    order = DivisionOrder(n, big, ring.residue)
    gl = gl_generators(ring, n, [g for g, _ in group.generators])
    report = {"det_pairs": 0, "nrd_pairs": 0, "action_triples": 0}
    # det is multiplicative: all generator pairs + random samples
    for a in gl:
        for b in gl:
            lhs = matrix_determinant(matrix_mul(a, b, ring), ring)
            rhs = matrix_determinant(a, ring) * matrix_determinant(b, ring)
            if lhs.lex_key() != rhs.lex_key():
                raise NotInvertible("det not multiplicative on generators")
            report["det_pairs"] += 1
    for _ in range(pair_samples):
        a = random_gl_element(ring, n, rng)
        b = random_gl_element(ring, n, rng)
        lhs = matrix_determinant(matrix_mul(a, b, ring), ring)
        rhs = matrix_determinant(a, ring) * matrix_determinant(b, ring)
        if lhs.lex_key() != rhs.lex_key():
            raise NotInvertible("det not multiplicative on a sampled pair")
        report["det_pairs"] += 1
    # Nrd is multiplicative on sampled unit pairs; restricted to o'^x it is
    # the coefficient-Frobenius norm, exhaustively
    for _ in range(pair_samples):
        b = order.random_unit(rng)
        c = order.random_unit(rng)
        lhs = reduced_norm(order, order.mul(b, c))
        rhs = reduced_norm(order, b) * reduced_norm(order, c)
        if lhs.lex_key() != rhs.lex_key():
            raise FrobeniusInvarianceViolation("Nrd not multiplicative on a sample")
        report["nrd_pairs"] += 1
    image = set()
    one_key = ring.one().lex_key()
    norm_one = 0
    for a in big.units():
        got = reduced_norm(order, order.scalar(a))
        want = a.norm_to(ring.residue)
        if got.lex_key() != want.lex_key():
            raise FrobeniusInvarianceViolation(
                "Nrd(%r) = %r but the coefficient norm is %r" % (a, got, want))
        image.add(got.lex_key())
        norm_one += got.lex_key() == one_key
    if image != {u.lex_key() for u in group.elements}:
        raise FrobeniusInvarianceViolation("Nrd on o'^x does not cover the unit group")
    report["nrd_surjective"] = True
    # SL_n (elementaries) and the scalar units of reduced norm 1 act trivially
    for g in gl[: n * (n - 1)]:
        if matrix_determinant(g, ring).lex_key() != one_key:
            raise NotInvertible("elementary generator has det != 1")
    expected_norm_one = ((p ** (f * n) - 1) // (p ** f - 1)) * \
        (p ** (f * (n - 1))) ** (m - 1)
    if norm_one != expected_norm_one:
        raise FrobeniusInvarianceViolation(
            "norm-one scalar count %d, expected %d" % (norm_one, expected_norm_one))
    report["norm_one_scalars"] = norm_one
    # action axioms on sampled triples: composing group elements composes maps
    action = Pi0Action(group, order, gl, report)
    for _ in range(min(pair_samples, 50)):
        g1 = random_gl_element(ring, n, rng)
        g2 = random_gl_element(ring, n, rng)
        b1 = order.random_unit(rng)
        b2 = order.random_unit(rng)
        t1 = group.elements[rng.randrange(group.order)]
        t2 = group.elements[rng.randrange(group.order)]
        c = group.elements[rng.randrange(group.order)]
        once = action.act(action.act(c, g2, b2, t2), g1, b1, t1)
        combined = action.act(c, matrix_mul(g1, g2, ring), order.mul(b1, b2), t1 * t2)
        if once.lex_key() != combined.lex_key():
            raise NotInvertible("action does not compose on a sampled triple")
        report["action_triples"] += 1
    return action


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
