"""One-dimensional formal o-modules in the additive model.

The group law is plain addition; all structure lives in the F_q-linear
polynomial [t](T) = sum c_i T^(q^i) with c_0 the embedded uniformizer and
c_n = 1 (monic normalization, degree q^n).  Deformation parameters enter only
through explicit coefficient choices in a concrete field; every claim is
checked fibrewise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

from .additive import AdditivePolynomial
from .errors import (CapExceeded, ExtensionRequired, IndexOutOfRange, NoConvergence,
                     NotASummand, StructureViolation)
from .finitefield import _move_table, embed_fq
from .quotring import OModElement, OModRing, _determinant
from .series import LocalFieldElement, LocalFieldSpec, series_keys
from .tower import (FieldTower, _residue_roots, additive_roots_in_field, embed,
                    ramified_extension, root_uniformizer_image)

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
    # target field -> t_action with coefficients embedded there
    _embedded: dict = dc_field(default_factory=dict, init=False, repr=False)

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

    def embedded_t_action(self, target: LocalFieldSpec) -> AdditivePolynomial:
        """The [t]-polynomial with coefficients moved up the tower, formed once
        per target field."""
        if target is self.field:
            return self.t_action
        if target not in self._embedded:
            self._embedded[target] = AdditivePolynomial(
                target, tuple(embed(c, target) for c in self.t_action.coeffs),
                self.t_action.qexp)
        return self._embedded[target]


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


def t_iterates(X: FormalOModule, x: LocalFieldElement, count: int) -> list:
    """x, [t](x), ..., [t]^(count-1)(x), [t] with coefficients in x's field."""
    P = X.embedded_t_action(x.field)
    out = [x]
    while len(out) < count:
        out.append(P(out[-1]))
    return out


def act(a: OModElement, iterates) -> LocalFieldElement:
    """[a](x) for a = sum_j a_j t^j, from x's [t]-iterates (t_iterates, one per
    coefficient of a up to its last nonzero one).  Every module here is linear
    over the residue field of its coefficients, so [a](x) = sum_j a_j [t]^j(x)
    with each a_j a scalar: at most m scalings and additions, no [a]
    polynomial."""
    if any(a.codes[len(iterates):]):
        raise ValueError("[a] needs %d [t]-iterates, got %d" % (a.ring.m, len(iterates)))
    field = iterates[0].field
    codes = a.codes.translate(_move_table(a.ring.residue, field.residue))
    acc = field.zero()
    for c, y in zip(codes, iterates):
        if c:
            acc = acc + y._scaled(c)
    return acc


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
    ring: OModRing                   # o/t^m over the root residue field
    field: LocalFieldSpec            # where the points live
    basis: list                      # rank-many points
    points: dict                     # coordinate key -> LocalFieldElement
    coords: dict                     # coordinate key -> tuple of OModElement

    @property
    def rank(self):
        return len(self.basis)

    def to_json(self):
        rows = []
        for key, vec in sorted(self.coords.items()):
            pt = self.points[key]
            val = pt.valuation_lower_bound()
            rows.append({
                "coordinates": [list(v.codes) for v in vec],
                "series": pt.to_json(),
                "valuation": "infinity" if val == math.inf
                             else [val.numerator, val.denominator],
                "valuation_exact": pt.is_known_nonzero() or pt.is_exact_zero(),
            })
        return {"level": self.level, "rank": self.rank,
                "cardinality": len(self.points), "points": rows}


def coord_key(coord_vector):
    return tuple(v.codes for v in coord_vector)


def torsion_points(X: FormalOModule, m: int, tower: FieldTower | None = None) -> TorsionModule:
    """Enumerate X[t^m] completely at m = 1 for the mixed-slope
    specializations, extending the tower as needed: integral slopes in the
    field, plus a declared-uniformizer wild extension for the inseparable
    residue direction.  The orbit model t*T + T^(q^n) over a field with
    residue F_{q^n} has its torsion from its tower (build_tower(...).torsion(m),
    through orbit_torsion_from_generator)."""
    if m < 1:
        raise ValueError("torsion levels start at 1, not %d" % m)
    if tower is None:
        tower = FieldTower(X.field)
    size = X.q ** (X.n * m)
    if size > DEGREE_CAP:
        raise CapExceeded("torsion has q^(nm) = %d points > cap %d" % (size, DEGREE_CAP))
    if all(c.is_exact_zero() for c in X.t_action.coeffs[1:-1]) and \
            X.field.residue.q == X.q ** X.n:
        raise ValueError("the orbit model's level-%d torsion comes from its tower:"
                         " build_tower(...).torsion(%d)" % (m, m))
    if m != 1:
        raise CapExceeded("torsion beyond level 1 is only enumerated for the"
                          " rank-one orbit model")
    return _assemble_from_basis(X, m, tower, _mixed_level1_basis(X, tower))


def _assemble_from_basis(X, m, tower, basis):
    root = X.field.root
    ring = OModRing(root.residue, m)
    top = tower.top
    embedded = [b if b.field is top else embed(b, top) for b in basis]
    # [v](b) for every scalar v and basis point b, from b's [t]-iterates
    elements = list(ring.elements())
    images = [[act(v, its) for v in elements]
              for its in (t_iterates(X, b, m) for b in embedded)]
    points = {}
    coords = {}
    for vec, terms in zip(itertools.product(elements, repeat=len(basis)),
                          itertools.product(*images)):
        key = coord_key(vec)
        points[key] = sum(terms, top.zero())
        coords[key] = vec
    expected = X.q ** (X.n * m)
    if len(points) != expected:
        raise StructureViolation("coordinate table has %d entries, expected %d"
                                 % (len(points), expected))
    distinct = set(series_keys(points.values()))
    if len(distinct) != expected:
        raise StructureViolation("torsion points are not pairwise distinct: "
                                 "%d keys for %d points" % (len(distinct), expected))
    return TorsionModule(X, m, ring, top, embedded, points, coords)


def _torsion_level_terms(t, u, k, slope):
    """H(t) = t + L^(Q-1) for L = [t]^(k-1)(u), and with slope also
    H'(t) = 1 - L^(Q-2)*D, D = dL/dt carried by D <- L + t*D.  L^Q is a
    Frobenius power, so a level costs about 2k products."""
    Q = u.field.residue.q
    L, D = u, u.field.zero()
    for _ in range(k - 1):
        if slope:
            D = L + t * D
        L = t * L + L.frobenius_power(u.field.residue.f)
    L_Q2 = L ** (Q - 2)
    return t + L_Q2 * L, (u.field.one() - L_Q2 * D) if slope else None


def _torsion_level_image(fld, k, precision):
    """lam_{k-1} = [t](lam_k) as a series in u = lam_k, from t in u: the zero
    of H(t) = t + L^(Q-1), L = [t]^(k-1)(u) = lam_1, as [t](lam_1) = 0.
    H' is a unit, so a Newton step turns t right modulo u^w into t right
    modulo u^(2w) (Brent and Kung, J. ACM 25, 1978).  From t = -u^v,
    v = (Q-1)Q^(k-1), right modulo u^(v+1), each step declares the iterate
    known to the doubled window, up to u^(P-1).  H(t) = 0 modulo u^(P-1)
    certifies t (NoConvergence otherwise): t*u + u^Q is known modulo u^P."""
    Q = fld.residue.q
    u = fld.uniformizer_elt()
    v = (Q - 1) * Q ** (k - 1)
    t = -fld.uniformizer_elt(v)
    w = v + 1
    while w < precision - 1:
        w = min(2 * w, precision - 1)
        t = LocalFieldElement(fld, t.leading_exponent, t.codes, w)
        residual, slope = _torsion_level_terms(t, u, k, slope=True)
        t = t - residual * slope.inv(precision=w - residual.order_lower_bound())
    t = t.truncate(precision - 1)
    residual, _ = _torsion_level_terms(t, u, k, slope=False)
    if residual.order_lower_bound() < precision - 1:
        raise NoConvergence("level %d: the Newton zero t leaves a residual of order"
                            " %r, not zero modulo u^%d"
                            % (k, residual.order_lower_bound(), precision - 1))
    return (t * u + fld.uniformizer_elt(Q)).truncate(precision)


def build_torsion_chain(X, m, tower, precision):
    """Adjoin torsion generators of the orbit model t*T + T^Q level by level:
    [t](lam_k) = lam_{k-1}, lam_0 = 0.  Extends the tower in place and returns
    [(field_k, lam_k)], where a degree-one level reuses the current top.

    Level 1 has the exact relation t = -lam_1^(Q-1).  A level k >= 2 is
    solved in its own field, with no substitution: _torsion_level_image
    finds t as a series in lam_k, and lam_{k-1} = t*lam_k + lam_k^Q."""
    Q = X.field.residue.q
    out = []
    for k in range(1, m + 1):
        if k == 1 and Q == 2:
            # lambda_1 = t itself, no extension needed
            out.append((tower.top, root_uniformizer_image(tower.top)))
            continue
        if k == 1:
            e, image = Q - 1, lambda fld: -(fld.uniformizer_elt() ** (Q - 1))
        else:
            e, image = Q, lambda fld, _k=k: _torsion_level_image(fld, _k, precision)
        spec, _emb = ramified_extension(tower.top, e, image, precision=precision,
                                        uniformizer="lam%d" % k)
        tower.push(spec)
        out.append((spec, spec.uniformizer_elt()))
    return out


def orbit_torsion_from_generator(X, m, tower, lam) -> TorsionModule:
    """Assemble the torsion table from an already-built chain: lam must be the
    level-m generator living in (or embeddable into) the tower's top.  The
    o-basis is {[x^j](lam)}, x the residue generator: [c](lam) = c*lam for a
    constant c."""
    top = tower.top
    lam = lam if lam.field is top else embed(lam, top)
    xgen = X.field.residue.gen() if X.n > 1 else X.field.residue.one()
    basis = [lam.scale(embed_fq(xgen ** j, top.residue)) for j in range(X.n)]
    return _assemble_from_basis(X, m, tower, basis)


def _mixed_level1_basis(X, tower):
    """Level-1 torsion for models with constant middle coefficients: integral
    slopes found in the field, the inseparable residue direction through a
    declared-uniformizer wild extension with an exact relation."""
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
            _adjoin_wild_branch(X, tower, e)
    return _greedy_basis(roots, X, tower.top)


def _adjoin_wild_branch(X, tower, e):
    """Extension containing the inseparable-direction roots: with s0 the
    multiple residue root of the slope-0 part, the substitution T = s0 + pi
    turns P(T) = 0 into the exact relation t = -(sum_{i>=1} c_i (s0+pi)^(q^i))
    / (s0 + pi)."""
    top = tower.top
    P = X.embedded_t_action(top)
    s0 = _multiple_residue_root(P)

    def image(fld):
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
        # t * (s0 + pi) = num, and c_0 = t * (unit series in t): at level 1 the
        # c_0 coefficient is the embedded uniformizer itself
        return num * base_pt.inv(precision=fld.default_precision)

    spec, _ = ramified_extension(top, e, image, precision=X.field.default_precision,
                                 uniformizer="pi")
    tower.push(spec)
    return spec


def _multiple_residue_root(P):
    """Nonzero residue root of the unit-slope (slope-0) part of P."""
    unit_terms = {P.q ** i: c.leading_coeff() for i, c in enumerate(P.coeffs)
                  if c.is_known_nonzero() and c.order() == 0}
    roots = _residue_roots(P.field.residue, unit_terms)
    if not roots:
        raise ExtensionRequired(P.newton_polygon_of_roots(), message=
                                "no residue root in the residue field; unramified"
                                " enlargement needed")
    return roots[0]


def _greedy_basis(roots, X, top):
    """F_q-basis of the level-1 root space from an enumerated root list."""
    nonzero = [r for r in roots if r.is_known_nonzero()]
    keys = series_keys(nonzero)
    scalars = [embed_fq(c, top.residue) for c in X.field.root.residue.elements()
               if not c.is_zero()]
    basis = []
    span = [top.zero()]
    for _, r in sorted(zip(keys, nonzero), key=lambda kr: kr[0]):
        *span_keys, key = series_keys(span + [r])
        if key in span_keys:
            continue
        basis.append(r)
        span += [s + r.scale(c) for c in scalars for s in span]
        if len(basis) == X.n:
            break
    if len(basis) != X.n:
        raise StructureViolation("found %d independent roots, expected rank %d"
                                 % (len(basis), X.n))
    return basis


# --- level structures ------------------------------------------------------------


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


def bijective_level_structure(Tm: TorsionModule) -> LevelStructure:
    """The identity-coordinate level structure (phi = the chosen basis)."""
    n = Tm.rank
    ring = Tm.ring
    matrix = [[ring.one() if i == j else ring.zero() for j in range(n)]
              for i in range(n)]
    return LevelStructure(Tm, matrix)


def count_level_structures(Tm: TorsionModule) -> int:
    """Number of o-module isomorphisms (t^-m o/o)^n -> torsion on an etale
    generic fibre.  Candidates are all tuples of n basis images.  Once the
    coordinates are checked to biject onto (o/t^m)^n, a candidate's induced
    map is v -> M v, M the matrix whose columns are the images' coordinates;
    it hits every torsion point exactly once when M is invertible over
    o/t^m, that is when M mod t is invertible over F_q.  Each candidate is
    tested by that rank test."""
    X = Tm.module
    if connected_height(X, fibre="generic") != 0:
        raise ValueError("generic fibre is not etale")
    n = Tm.rank
    size = len(Tm.points)
    if size ** n > 1 << 16:
        raise CapExceeded("%d candidate maps exceed cap %d" % (size ** n, 1 << 16))
    coord_vecs = [Tm.coords[k] for k in sorted(Tm.points)]
    every_vector = set(itertools.product([a.codes for a in Tm.ring.elements()], repeat=n))
    if len(coord_vecs) != len(every_vector) or \
            {coord_key(v) for v in coord_vecs} != every_vector:
        raise StructureViolation("torsion coordinates do not biject onto (o/t^m)^%d" % n)
    q = Tm.ring.residue.q
    residues = [[x.code % q for x in v] for v in coord_vecs]
    # M mod t is invertible iff its transpose, the rows of image residues, is:
    # iff its determinant over F_q = o/t is a unit, which the unit-pivot
    # elimination reports as not None
    tables = Tm.ring.tables
    return sum(_determinant(tables, images) is not None
               for images in itertools.product(residues, repeat=n))


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
    # By Nakayama, h vectors with F_q-independent residues span a free summand
    # of q^(mh) elements: the kernel is one exactly when the first h such
    # kernel vectors exist and their span lies in the kernel.
    add, mul = ring.tables.add_rows, ring.tables.mul_rows
    gens, residues = [], {bytes(n)}
    for vec in kernel:
        r = bytes(x.code % q for x in vec)
        if r in residues:
            continue
        gens.append(vec)
        if len(gens) == h:
            break
        residues = {bytes(add[a][b] for a, b in zip(s, r.translate(mul[c])))
                    for s in residues for c in range(q)}
    if len(gens) == h:
        span = [(ring.zero(),) * n]
        for g in gens:
            span = [tuple(a + c * x for a, x in zip(s, g)) for s in span for c in ring.elements()]
        kernel_keys = {coord_key(v) for v in kernel}
        if all(coord_key(v) in kernel_keys for v in span):
            return h
    raise NotASummand("kernel admits no generating set of %d unit rows" % h)
