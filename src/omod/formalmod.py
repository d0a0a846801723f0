"""One-dimensional formal o-modules in the additive model.

The group law is plain addition; all structure lives in the F_q-linear
polynomial [t](T) = sum c_i T^(q^i) with c_0 the embedded uniformizer and
c_n = 1 (monic normalization, degree q^n).  Deformation parameters enter only
through explicit coefficient choices in a concrete field; every claim is
checked fibrewise.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .additive import AdditivePolynomial
from .errors import (CapExceeded, ExtensionRequired, IndexOutOfRange, NotASummand,
                     StructureViolation)
from .finitefield import embed_fq
from .quotring import OModElement, OModRing
from .series import LocalFieldElement, LocalFieldSpec
from .tower import (FieldTower, additive_roots_in_field, embed,
                    ramified_extension_by_relation, root_uniformizer_image)

DEGREE_CAP = 4096


@dataclass(eq=False)
class FormalOModule:
    """Additive-model formal module over a tower field.

    t_action has c_0 equal to the embedded root uniformizer and is monic of
    degree q^n, q the root residue cardinality.
    """

    field: LocalFieldSpec
    t_action: AdditivePolynomial
    n: int

    def __post_init__(self):
        root = self.field.root
        if self.t_action.qexp != root.residue.f:
            raise ValueError("linearity field must be the root residue field")
        if self.t_action.qdegree != self.n:
            raise ValueError("degree must be exactly q^n")
        q = root.residue.q
        if q ** self.n > DEGREE_CAP:
            raise CapExceeded("q^n = %d exceeds degree cap %d" % (q ** self.n, DEGREE_CAP))
        lead = self.t_action.coeffs[-1]
        if not (lead.is_exact() and lead.is_known_nonzero() and lead.order() == 0
                and lead.leading_coeff() == self.field.residue.one()):
            raise ValueError("model must be monic (c_n = 1)")
        c0 = self.t_action.coeffs[0]
        if not c0.agrees(root_uniformizer_image(self.field)):
            raise ValueError("c_0 must be the embedded base uniformizer")

    @property
    def q(self):
        return self.field.root.residue.q

    def coefficients(self):
        return self.t_action.coeffs

    def embedded_t_action(self, target: LocalFieldSpec) -> AdditivePolynomial:
        """The [t]-polynomial with coefficients moved up the tower."""
        if target is self.field:
            return self.t_action
        return AdditivePolynomial(
            target, tuple(embed(c, target) for c in self.t_action.coeffs),
            self.t_action.qexp)


def lubin_tate_module(field: LocalFieldSpec, n: int) -> FormalOModule:
    """[t](T) = t*T + T^(q^n): the multiplication-rich model whose torsion is
    a free rank-one orbit over the enlarged coefficient ring.  Requires the
    field's residue to be F_{q^n} so the orbit fills the whole torsion."""
    root = field.root
    q = root.residue.q
    if field.residue.q != q ** n:
        raise ValueError("field residue must have order q^n for this model")
    t_img = root_uniformizer_image(field)
    zero = field.zero()
    coeffs = [t_img] + [zero] * (n - 1) + [field.one()]
    return FormalOModule(field, AdditivePolynomial(field, tuple(coeffs), root.residue.f), n)


def module_from_unit_coefficients(field: LocalFieldSpec, unit_indices, n: int) -> FormalOModule:
    """[t](T) = t*T + sum_{i in unit_indices} T^(q^i) + T^(q^n): specializations
    whose middle coefficients are the constant 1."""
    root = field.root
    t_img = root_uniformizer_image(field)
    coeffs = [field.zero()] * (n + 1)
    coeffs[0] = t_img
    coeffs[n] = field.one()
    for i in unit_indices:
        if not 0 < i < n:
            raise IndexOutOfRange("unit coefficient index out of range")
        coeffs[i] = field.one()
    return FormalOModule(field, AdditivePolynomial(field, tuple(coeffs), root.residue.f), n)


def multiply_by(a: OModElement, X: FormalOModule, degree_cap=DEGREE_CAP,
                target: LocalFieldSpec | None = None) -> AdditivePolynomial:
    """The multiplication [a] for a = sum a_j t^j in o'/t^M: the sum of
    scalar-scaled composites a_j * [t]^(o j), truncated nowhere -- composites
    beyond the degree cap raise CapExceeded."""
    target = target or X.field
    P = X.embedded_t_action(target)
    field = target
    res = field.residue
    M = a.ring.m
    if X.q ** (X.n * (M - 1)) > degree_cap:
        raise CapExceeded("[a] would have degree q^(n(M-1)) = %d > cap %d"
                          % (X.q ** (X.n * (M - 1)), degree_cap))
    from .additive import AdditivePolynomial as AP

    def scalar(c):
        return AP(field, (field.constant(embed_fq(c, res)),), P.qexp)

    total = None
    composite = AP(field, (field.one(),), P.qexp)  # [t]^0 = T
    for j, aj in enumerate(a.coeffs):
        if j > 0:
            composite = P.compose(composite)
        if not aj.is_zero():
            term = scalar(aj).compose(composite)
            total = term if total is None else total + term
    if total is None:
        return AP(field, (field.zero(),), P.qexp)  # the zero map
    return total


def connected_height(X: FormalOModule, fibre="closed") -> int:
    """Index of the first coefficient that is a unit at the given fibre.

    fibre="closed": unit means valuation 0 (nonzero after reduction modulo the
    maximal ideal).  fibre="generic": unit means nonzero in the coefficient
    field itself.  c_n = 1 guarantees the minimum exists.
    """
    for i, c in enumerate(X.t_action.coeffs):
        if not c.is_known_nonzero():
            continue
        if fibre == "generic":
            return i
        if c.order() == 0:
            return i
    raise ValueError("no unit coefficient; model is not monic")


# --- torsion ------------------------------------------------------------------------


@dataclass(eq=False)
class TorsionModule:
    """The fully enumerated t^m-torsion of a formal module, indexed by
    coordinates over (o/t^m)^rank via a chosen basis."""

    module: FormalOModule
    level: int
    ring: OModRing | None            # o/t^m over the root residue field
    field: LocalFieldSpec            # where the points live
    basis: list                      # rank-many points
    points: dict                     # coordinate key -> LocalFieldElement
    coords: dict                     # coordinate key -> tuple of OModElement
    generator: LocalFieldElement | None = None
    tower: FieldTower | None = None
    key_terms: int = dc_field(default=48)

    @property
    def rank(self):
        return len(self.basis)

    def coordinate_vectors(self):
        return list(self.coords.values())

    def point(self, coord_vector):
        return self.points[coord_key(coord_vector)]

    def point_key_index(self):
        return {pt.series_key(terms=self.key_terms): key
                for key, pt in self.points.items()}

    def act(self, a: OModElement, pt: LocalFieldElement) -> LocalFieldElement:
        """[a] applied to a point, computed in the point field."""
        return multiply_by(a, self.module, target=self.field)(pt)

    def evaluate(self, coord_vector):
        """Recompute sum_j [v_j](b_j) from scratch (structure-check path)."""
        acc = self.field.zero()
        for v, b in zip(coord_vector, self.basis):
            acc = acc + self.act(v, b)
        return acc

    def to_json(self):
        import math as _math

        rows = []
        for key, vec in sorted(self.coords.items()):
            pt = self.points[key]
            val = pt.valuation_lower_bound()
            rows.append({
                "coordinates": [list(map(int, v.lex_key())) for v in vec],
                "series": pt.to_json(),
                "valuation": "infinity" if val == _math.inf
                             else [val.numerator, val.denominator],
                "valuation_exact": pt.is_known_nonzero() or pt.is_exact_zero(),
            })
        return {"level": self.level, "rank": self.rank,
                "cardinality": len(self.points), "points": rows}

    def to_csv_rows(self):
        out = [("coordinates", "valuation", "series")]
        for key, vec in sorted(self.coords.items()):
            pt = self.points[key]
            val = pt.valuation_lower_bound()
            val_s = str(val)
            out.append((";".join(str(v.lex_key()) for v in vec), val_s, repr(pt)))
        return out


def coord_key(coord_vector):
    return tuple(v.lex_key() for v in coord_vector)


def torsion_points(X: FormalOModule, m: int, tower: FieldTower | None = None,
                   precision=None, degree_cap=DEGREE_CAP) -> TorsionModule:
    """Enumerate X[t^m] completely, extending the tower as needed.

    Orbit path: models t*T + T^(q^n) over a field with residue F_{q^n} get a
    torsion tower with a distinguished generator, and the points are the
    [a]-orbit of the top uniformizer.  Mixed-slope specializations (level 1)
    get per-segment constructions: integral slopes in the field, plus a
    declared-uniformizer wild extension for the inseparable residue direction.
    """
    if tower is None:
        tower = FieldTower(X.field)
    if X.q ** (X.n * max(m, 1)) > degree_cap:
        raise CapExceeded("torsion has q^(nm) = %d points > cap %d"
                          % (X.q ** (X.n * m), degree_cap))
    if m == 0:
        return TorsionModule(X, 0, None, tower.top, [], {(): tower.top.zero()},
                             {(): ()}, tower=tower)
    root = X.field.root
    q = root.residue.q
    mids = X.t_action.coeffs[1:-1]
    is_orbit_model = all(c.is_exact_zero() for c in mids) and \
        X.field.residue.q == q ** X.n
    if is_orbit_model:
        basis, generator = _orbit_basis(X, m, tower, precision)
    elif m == 1:
        basis, generator = _mixed_level1_basis(X, tower, precision)
    else:
        raise CapExceeded("torsion beyond level 1 is only enumerated for the"
                          " rank-one orbit model")
    return _assemble_from_basis(X, m, tower, basis, generator)


def _assemble_from_basis(X, m, tower, basis, generator):
    root = X.field.root
    ring = OModRing(root.residue, m)
    top = tower.top
    embedded = [b if b.field is top else embed(b, top) for b in basis]
    points = {}
    coords = {}
    mult_cache = {}

    def mult(a):
        k = a.lex_key()
        if k not in mult_cache:
            mult_cache[k] = multiply_by(a, X, target=top)
        return mult_cache[k]

    vectors = [()]
    for _ in range(len(basis)):
        vectors = [v + (a,) for v in vectors for a in ring.elements()]
    for vec in vectors:
        acc = top.zero()
        for v, b in zip(vec, embedded):
            acc = acc + mult(v)(b)
        key = coord_key(vec)
        points[key] = acc
        coords[key] = vec
    expected = X.q ** (X.n * m)
    if len(points) != expected:
        raise StructureViolation("coordinate table has %d entries, expected %d"
                                 % (len(points), expected))
    distinct = {pt.series_key(terms=48) for pt in points.values()}
    if len(distinct) != expected:
        raise StructureViolation("torsion points are not pairwise distinct: "
                                 "%d keys for %d points" % (len(distinct), expected))
    return TorsionModule(X, m, ring, top, embedded, points, coords,
                         generator=generator, tower=tower)


def build_torsion_chain(X, m, tower, precision=None, name_prefix="w"):
    """Adjoin torsion generators of the orbit model t*T + T^Q level by level:
    [t](lam_k) = lam_{k-1}, lam_0 = 0.  Extends the tower in place and returns
    [(field_k, lam_k)], where a degree-one level reuses the current top."""
    Q = X.field.residue.q
    precision = precision or X.field.default_precision
    out = []
    for k in range(1, m + 1):
        current_top = tower.top
        if k == 1:
            def relation(fld, _cur, _Q=Q):
                return -(fld.uniformizer_elt() ** (_Q - 1))
            e = Q - 1
        else:
            # lambda_{k-1} = [t](lambda_k) = t*lambda_k + lambda_k^Q, with t's
            # known series in lambda_{k-1} re-evaluated at the unknown image
            t_prev_series = root_uniformizer_image(tower.top)

            def relation(fld, cur, _Q=Q, _prev=t_prev_series):
                from .series import substitute
                lam_k = fld.uniformizer_elt()
                if cur.is_zero_mod_precision():
                    t_img = fld.zero(precision=cur.precision or fld.default_precision)
                else:
                    t_img = substitute(_prev, cur)
                return t_img * lam_k + lam_k ** _Q
            e = Q
        if e == 1:
            # Q = 2 first level: lambda_1 = t itself, no extension needed
            out.append((tower.top, root_uniformizer_image(tower.top)))
            continue
        spec, _emb = ramified_extension_by_relation(
            current_top, e, relation, precision=precision,
            uniformizer="%s%d" % (name_prefix, k))
        tower.push(spec)
        out.append((spec, spec.uniformizer_elt()))
    return out


def _orbit_basis(X, m, tower, precision):
    """Build the torsion tower for t*T + T^Q and return the o-basis
    {[x^j](lambda_m)} together with the generator lambda_m."""
    chain = build_torsion_chain(X, m, tower, precision)
    return _orbit_basis_from_generator(X, m, tower, chain[-1][1])


def _orbit_basis_from_generator(X, m, tower, lam):
    top = tower.top
    lam = lam if lam.field is top else embed(lam, top)
    big = OModRing(X.field.residue, m)
    basis = []
    xgen = X.field.residue.gen() if X.n > 1 else X.field.residue.one()
    for j in range(X.n):
        c = big.element([xgen ** j if X.n > 1 else X.field.residue.one()])
        basis.append(multiply_by(c, X, target=top)(lam))
    return basis, lam


def orbit_torsion_from_generator(X, m, tower, lam) -> TorsionModule:
    """Assemble the torsion table from an already-built chain: lam must be the
    level-m generator living in (or embeddable into) the tower's top."""
    basis, lam = _orbit_basis_from_generator(X, m, tower, lam)
    return _assemble_from_basis(X, m, tower, basis, lam)


def _mixed_level1_basis(X, tower, precision):
    """Level-1 torsion for models with constant middle coefficients: integral
    slopes found in the field, the inseparable residue direction through a
    declared-uniformizer wild extension with an exact relation."""
    precision = precision or X.field.default_precision
    for c in X.t_action.coeffs[1:]:
        if not c.is_exact():
            raise CapExceeded("mixed torsion needs exact constant higher coefficients")
    attempts = 0
    while True:
        top = tower.top
        P = X.embedded_t_action(top)
        try:
            roots = additive_roots_in_field(P, None)
            break
        except ExtensionRequired as exc:
            attempts += 1
            if attempts > X.n:
                raise
            frac = [s for s in exc.polygon.segments if (-s.slope).denominator != 1]
            e = (-frac[0].slope).denominator if frac else 0
            if e < 2:
                raise
            _adjoin_wild_branch(X, tower, e, precision)
    basis = _greedy_basis(roots, X, tower.top)
    return basis, None


def _adjoin_wild_branch(X, tower, e, precision):
    """Extension containing the inseparable-direction roots: with s0 the
    multiple residue root of the slope-0 part, the substitution T = s0 + pi
    turns P(T) = 0 into the exact relation t = -(sum_{i>=1} c_i (s0+pi)^(q^i))
    / (s0 + pi)."""
    top = tower.top
    P = X.embedded_t_action(top)
    s0 = _multiple_residue_root(P)

    def relation(fld, _cur):
        pi = fld.uniformizer_elt()
        s = fld.constant(embed_fq(s0, fld.residue))
        base_pt = s + pi
        acc = fld.zero()
        for i, c in enumerate(P.coeffs):
            if i == 0 or (c.is_zero_mod_precision() and c.precision is None):
                continue
            cc = fld.constant(c.leading_coeff()) if c.order() == 0 else None
            if cc is None:
                raise CapExceeded("wild relation requires constant coefficients")
            acc = acc + cc * base_pt.frobenius_power(P.qexp * i)
        num = -acc
        c0_lead = P.coeffs[0]
        # t * (s0 + pi) = num, and c_0 = t * (unit series in t): at level 1 the
        # c_0 coefficient is the embedded uniformizer itself
        return num * base_pt.inv(precision=fld.default_precision)

    spec, _ = ramified_extension_by_relation(top, e, relation, precision=precision,
                                             uniformizer="pi")
    tower.push(spec)
    return spec


def _multiple_residue_root(P):
    """Nonzero residue root of the unit-slope (slope-0) part of P."""
    res = P.field.residue
    unit_terms = {}
    for i, c in enumerate(P.coeffs):
        if c.is_known_nonzero() and c.order() == 0:
            unit_terms[i] = c.leading_coeff()
    for cand in res.elements():
        if cand.is_zero():
            continue
        acc = res.zero()
        for i, lead in unit_terms.items():
            acc = acc + lead * cand ** (P.q ** i)
        if acc.is_zero():
            return cand
    raise ExtensionRequired(P.newton_polygon_of_roots(), message=
                            "no residue root in the residue field; unramified"
                            " enlargement needed")


def _greedy_basis(roots, X, top):
    """F_q-basis of the level-1 root space from an enumerated root list."""
    q = X.q
    res_root = X.field.root.residue
    key = lambda r: r.series_key(terms=48)
    nonzero = [r for r in roots if r.is_known_nonzero()]
    basis = []
    span = {top.zero().series_key(terms=48): top.zero()}
    for r in sorted(nonzero, key=lambda x: (x.order(), key(x))):
        if key(r) in span:
            continue
        basis.append(r)
        new_span = dict(span)
        for existing in list(span.values()):
            for c in res_root.elements():
                if c.is_zero():
                    continue
                combo = existing + r.scale(embed_fq(c, top.residue))
                new_span[key(combo)] = combo
        span = new_span
        if len(basis) == X.n:
            break
    if len(basis) != X.n:
        raise StructureViolation("found %d independent roots, expected rank %d"
                                 % (len(basis), X.n))
    return basis


# --- structure checks ------------------------------------------------------------


def omodule_structure_check(Tm: TorsionModule, rng=None, sample_cap=4096):
    """Verify the point table is an o/t^m-module isomorphic to (o/t^m)^n:
    bijectivity of the structure map, closure under addition, and
    compatibility of the [a]-action, exhaustively up to sample_cap pairs."""
    if Tm.level == 0:
        return {"cardinality": 1, "rank": 0, "pairs_checked": 0, "actions_checked": 0}
    index = Tm.point_key_index()
    if len(index) != len(Tm.points):
        raise StructureViolation("structure map is not injective")
    items = sorted(Tm.coords.items())
    pairs_checked = 0
    exhaustive = len(items) ** 2 <= sample_cap
    if exhaustive:
        pairs = [(a, b) for a in items for b in items]
    else:
        rng = rng or __import__("random").Random(0)
        pairs = [(items[rng.randrange(len(items))], items[rng.randrange(len(items))])
                 for _ in range(sample_cap)]
    for (ka, va), (kb, vb) in pairs:
        vsum = tuple(x + y for x, y in zip(va, vb))
        got = Tm.points[ka] + Tm.points[kb]
        want = Tm.points[coord_key(vsum)]
        if not got.agrees(want):
            raise StructureViolation("addition fails at %r + %r" % (ka, kb))
        pairs_checked += 1
    actions_checked = 0
    for a in Tm.ring.elements():
        for kv, vec in items:
            scaled = tuple(a * x for x in vec)
            got = Tm.act(a, Tm.points[kv])
            want = Tm.points[coord_key(scaled)]
            if not got.agrees(want):
                raise StructureViolation("[a]-action fails at a=%r, v=%r" % (a, kv))
            actions_checked += 1
    return {"cardinality": len(items), "rank": Tm.rank,
            "pairs_checked": pairs_checked, "actions_checked": actions_checked}


@dataclass(eq=False)
class LevelStructure:
    """o-linear map (t^-m o/o)^n -> torsion, given by a coordinate matrix:
    column j holds the coordinates of the image of the j-th standard basis
    vector."""

    torsion: TorsionModule
    matrix: list  # n x n, entries OModElement over the torsion's scalar ring

    def image_of(self, vector):
        """phi(v) for v a tuple of OModElement coordinates."""
        n = self.torsion.rank
        out = []
        for i in range(n):
            acc = self.torsion.ring.zero()
            for j in range(n):
                acc = acc + self.matrix[i][j] * vector[j]
            out.append(acc)
        return self.torsion.points[coord_key(tuple(out))]

    def images_of_level(self, level):
        """All phi(v) for v in the level-`level` sublattice t^(m-level)*(...)."""
        m = self.torsion.level
        ring = self.torsion.ring
        res = ring.residue
        shift = m - level
        vectors = [()]
        for _ in range(self.torsion.rank):
            vectors = [v + (w,) for v in vectors for w in _low_level_elements(ring, level)]
        out = []
        for vec in vectors:
            shifted = tuple(w * ring.t() ** shift if shift else w for w in vec)
            out.append((shifted, self.image_of(shifted)))
        return out


def _low_level_elements(ring, level):
    sub = []
    res = ring.residue
    total = res.q ** level
    for k in range(total):
        digs = []
        kk = k
        for _ in range(level):
            digs.append(res.from_int(kk % res.q))
            kk //= res.q
        sub.append(ring.element(digs + [res.zero()] * (ring.m - level)))
    return sub


def bijective_level_structure(Tm: TorsionModule) -> LevelStructure:
    """The identity-coordinate level structure (phi = the chosen basis)."""
    n = Tm.rank
    ring = Tm.ring
    matrix = [[ring.one() if i == j else ring.zero() for j in range(n)]
              for i in range(n)]
    return LevelStructure(Tm, matrix)


def zero_level_structure(Tm: TorsionModule) -> LevelStructure:
    matrix = [[Tm.ring.zero() for _ in range(Tm.rank)] for _ in range(Tm.rank)]
    return LevelStructure(Tm, matrix)


def verify_level_structure(phi: LevelStructure, fibre="generic"):
    """Drinfeld condition: prod over the level-1 sublattice of (T - phi(v))
    must divide [t](T); for a bijective phi the product equals [t](T)
    coefficientwise (both monic of degree q^n)."""
    Tm = phi.torsion
    X = Tm.module
    top = Tm.field
    level1 = phi.images_of_level(1)
    prod = [top.one()]  # dense polynomial, constant first
    for _vec, pt in level1:
        prod = _poly_mul_dense(prod, [-pt, top.one()])
    t_dense = X.embedded_t_action(top).to_dense_coeffs()
    if fibre == "closed":
        prod_res = [_residue_or_zero(c) for c in prod]
        t_res = [_residue_or_zero(c) for c in t_dense]
        divisible, witness = _residue_poly_divides(prod_res, t_res, top.residue)
        equal = divisible and len(prod_res) == len(t_res) and all(
            a == b for a, b in zip(prod_res, t_res))
        return {"divisible": divisible, "equal": equal, "witness": witness,
                "fibre": "closed"}
    equal = True
    witness = None
    if len(prod) != len(t_dense):
        equal = False
    else:
        for k, (a, b) in enumerate(zip(prod, t_dense)):
            if not a.agrees(b):
                equal = False
                witness = ("coefficient of T^%d" % k, repr(a), repr(b))
                break
    # degree q^n on both sides: divisibility of monic polynomials of equal
    # degree is exactly coefficientwise equality
    return {"divisible": equal, "equal": equal, "witness": witness,
            "fibre": "generic"}


def _poly_mul_dense(a, b):
    field = a[0].field
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero_mod_precision() and x.precision is None:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _residue_or_zero(c):
    if not c.is_known_nonzero():
        return c.field.residue.zero()
    if c.order() > 0:
        return c.field.residue.zero()
    return c.leading_coeff()


def _residue_poly_divides(small, big, res):
    """Exact division of residue-field polynomials; returns (bool, witness)."""
    big = list(big)
    d_small = _residue_degree(small)
    d_big = _residue_degree(big)
    if d_small < 0:
        return (False, "zero divisor polynomial")
    while True:
        d_big = _residue_degree(big)
        if d_big < d_small:
            break
        factor = big[d_big] / small[d_small]
        for i in range(d_small + 1):
            big[d_big - d_small + i] = big[d_big - d_small + i] - factor * small[i]
    rem = [c for c in big if not c.is_zero()]
    return (not rem, None if not rem else "nonzero remainder")


def _residue_degree(poly):
    for d in range(len(poly) - 1, -1, -1):
        if not poly[d].is_zero():
            return d
    return -1


def count_level_structures(Tm: TorsionModule, enumeration_cap=1 << 16) -> int:
    """Number of o-module isomorphisms (t^-m o/o)^n -> torsion on an etale
    generic fibre: candidates are all basis-image tuples; a candidate counts
    when its induced map hits every torsion point exactly once."""
    X = Tm.module
    if connected_height(X, fibre="generic") != 0:
        raise ValueError("generic fibre is not etale")
    n = Tm.rank
    size = len(Tm.points)
    if size ** n > enumeration_cap:
        raise CapExceeded("%d candidate maps exceed cap %d" % (size ** n, enumeration_cap))
    index = Tm.point_key_index()
    keys = sorted(Tm.points)
    coord_vecs = [Tm.coords[k] for k in keys]
    count = 0
    ring = Tm.ring

    # precompute [a]-action on coordinates: scaling coordinates componentwise
    def induced_images(images_coords):
        seen = set()
        for vec in coord_vecs:
            acc = [ring.zero()] * n
            for j, v in enumerate(vec):
                for i in range(n):
                    acc[i] = acc[i] + images_coords[j][i] * v
            seen.add(coord_key(tuple(acc)))
        return seen

    import itertools

    for images in itertools.product(coord_vecs, repeat=n):
        if len(induced_images(images)) == size:
            count += 1
    return count


def kernel_rank(phi: LevelStructure, reduction="closed"):
    """Rank of {v : phi(v) vanishes at the specialization}, checked to be a
    direct summand.  reduction="closed" counts positive valuation as vanishing
    (the residue map of the specialization); "generic" only exact zero."""
    Tm = phi.torsion
    ring = Tm.ring
    n = Tm.rank
    kernel = []
    for key, vec in sorted(Tm.coords.items()):
        pt = phi.image_of(vec)
        if reduction == "closed":
            dies = pt.order_lower_bound() > 0
        else:
            dies = pt.is_zero_mod_precision()
        if dies:
            kernel.append(vec)
    size = len(kernel)
    q = ring.residue.q
    m = ring.m
    h = 0
    while q ** (m * h) < size:
        h += 1
    if q ** (m * h) != size:
        raise NotASummand("kernel has %d elements, not a power q^(mh)" % size)
    if h == 0:
        return 0
    # find h kernel generators whose span is the kernel and which extend to a
    # basis of (o/t^m)^n by unit-vector completion
    gens = _summand_generators(kernel, ring, n, h)
    if gens is None:
        raise NotASummand("kernel admits no generating set of %d unit rows" % h)
    return h


def _summand_generators(kernel, ring, n, h):
    """Greedy: pick kernel vectors with a unit in a fresh coordinate (after
    reduction by already-chosen ones); such a set generates a free summand."""
    import itertools

    kernel_keys = {coord_key(v) for v in kernel}
    for combo in itertools.combinations(kernel, h):
        # unit-pivot test: the h x n matrix has h columns with unit pivots in
        # distinct positions
        pivots = []
        used = set()
        ok = True
        rows = [list(v) for v in combo]
        for r in rows:
            pos = next((j for j, x in enumerate(r) if x.is_unit() and j not in used), None)
            if pos is None:
                ok = False
                break
            used.add(pos)
            pivots.append(pos)
        if not ok:
            continue
        # span check: all o/t^m-combinations of combo stay inside the kernel set
        span = set()
        vectors = [()]
        for _ in range(h):
            vectors = [v + (a,) for v in vectors for a in ring.elements()]
        good = True
        for coeffs in vectors:
            acc = [ring.zero()] * n
            for c, vec in zip(coeffs, combo):
                for i in range(n):
                    acc[i] = acc[i] + c * vec[i]
            k = coord_key(tuple(acc))
            span.add(k)
            if k not in kernel_keys:
                good = False
                break
        if good and len(span) == len(kernel):
            return list(combo)
    return None
