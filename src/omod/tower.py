"""Towers of local fields: unramified enlargements, ramified extensions with
declared uniformizers, embeddings, automorphisms, and root finding.

A ramified extension is always presented by a declared uniformizer together
with the base uniformizer expressed as a series in it; that makes valuations
and Galois actions computable by direct substitution.  Every caller knows
that series in closed form: -lam_1^(Q-1) at torsion level 1, the Newton zero
of formalmod._torsion_level_image at levels k >= 2, the exact wild relation
of formalmod._adjoin_wild_branch, and the series a tower cache stores.
ramified_extension checks it and attaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .additive import AdditivePolynomial, require_separable
from .errors import (ExtensionRequired, MixedFields, NoConvergence,
                     NotInTower, PrecisionExhausted)
from .finitefield import GF, FqElement, _tables
from .newton import newton_polygon
from .series import (BaseEmbedding, LocalFieldElement, LocalFieldSpec, make_element,
                     series_keys, substitute)

FIXED_POINT_EXTRA_ITERATIONS = 8


def unramified_extension(base: LocalFieldSpec, k: int):
    """Residue field grows by degree k; the uniformizer stays (maps to the
    new field's uniformizer exactly)."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    new_residue = GF(base.residue.p, base.residue.f * k)  # CapExceeded inside GF
    spec = LocalFieldSpec(
        residue=new_residue,
        uniformizer=base.uniformizer,
        ramification_index=1,
        residue_degree=k,
        base=base,
        default_precision=base.default_precision,
    )
    spec.embedding = BaseEmbedding(image_of_base_uniformizer=spec.uniformizer_elt())
    return spec


def ramified_extension(base: LocalFieldSpec, e: int, image, precision=None,
                       uniformizer=None):
    """Totally ramified extension of degree e with a declared uniformizer.

    image(spec) returns the image of the base uniformizer as a series in the
    new field spec.  An exact image stays exact; an inexact one is cut to
    u^precision.  An image known modulo less than u^precision, or zero
    there, raises PrecisionExhausted; one of order other than e raises
    NoConvergence.  Returns (spec, embedding).
    """
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    precision = precision if precision is not None else base.default_precision
    spec = LocalFieldSpec(base.residue, uniformizer or (base.uniformizer + "'"),
                          ramification_index=e, residue_degree=1, base=base,
                          default_precision=precision)
    new = image(spec)
    if not new.is_exact():
        new = new.truncate(precision)
        if new.is_zero_mod_precision():
            raise PrecisionExhausted(
                "image of the base uniformizer is zero modulo u^%d: too little"
                " precision for ramification index %d" % (precision, e))
        if new.precision < precision:
            raise PrecisionExhausted(
                "image of the base uniformizer is known modulo u^%d only, not"
                " u^%d" % (new.precision, precision))
    if new.order() != e:
        raise NoConvergence("relation image has order %r, expected e = %d"
                            % (new.order_lower_bound(), e))
    spec.embedding = BaseEmbedding(image_of_base_uniformizer=new)
    return spec, spec.embedding


def embed(x: LocalFieldElement, target: LocalFieldSpec) -> LocalFieldElement:
    """Move x up the tower into target; ring homomorphism, valuations scale
    by the relative ramification index."""
    if x.field is target:
        return x
    path = []
    spec = target
    while spec is not None and spec is not x.field:
        path.append(spec)
        spec = spec.base
    if spec is None:
        raise NotInTower("%r does not lie below %r" % (x.field, target))
    for step in reversed(path):
        emb = step.embedding
        if emb is None:
            raise NotInTower("extension %r has no embedding attached" % (step,))
        x = substitute(x, emb.image_of_base_uniformizer)
    return x


def root_uniformizer_image(spec: LocalFieldSpec) -> LocalFieldElement:
    """The root field's uniformizer embedded all the way up into spec."""
    return embed(spec.root.uniformizer_elt(), spec)


@dataclass(eq=False)
class FieldAutomorphism:
    """Automorphism of a tower field over its root: substitute the uniformizer."""

    field: LocalFieldSpec
    image_of_uniformizer: LocalFieldElement

    def __post_init__(self):
        if self.image_of_uniformizer.field is not self.field:
            raise MixedFields("uniformizer image must live in the automorphism's field")

    def __call__(self, x):
        return apply_automorphism(self, x)


def apply_automorphism(sigma: FieldAutomorphism, x: LocalFieldElement):
    if x.field is not sigma.field:
        raise MixedFields("element lives in %r, automorphism acts on %r"
                          % (x.field, sigma.field))
    return substitute(x, sigma.image_of_uniformizer)


# --- roots of additive polynomials -----------------------------------------------
#
# The search runs on P(T) + c for an additive P = sum c_i T^(q^i), whose only
# nonzero coefficients sit at the degrees 0 and q^i.  Two facts of
# characteristic p carry it: a shift is a new constant term,
# P(t0 + y) + c = P(y) + (P(t0) + c), and the derivative is c_0.


def _terms(P, c):
    """(degree, coefficient) pairs of P(T) + c."""
    return [(0, c)] + [(P.q ** i, a) for i, a in enumerate(P.coeffs)]


def find_integral_roots(P, c, depth=0, min_val_exclusive=None):
    """All roots of P(T) + c with valuation >= 0 lying in P's field.

    Strategy: Newton polygon; per integer slope s, read the residue equation
    of T = u^s S, lift simple residue roots by Newton iteration, and recurse
    with the constant P(t0) + c when a residue root t0 is multiple.  A
    recursion at scale s only accepts refinements of valuation > s (other
    branches own the rest); that is what min_val_exclusive enforces.  Segments
    with fractional slope (and residue roots missing from the residue field)
    are reported via ExtensionRequired carrying the polygon and whatever was
    found in the field.  Roots are told apart by series_keys, and each root
    carries only the precision its data give (see _newton_root).
    """
    field = P.field
    depth_limit = field.default_precision + FIXED_POINT_EXTRA_ITERATIONS
    if depth > depth_limit:
        raise NoConvergence("root-search recursion exceeded depth %d" % depth_limit)
    terms = _terms(P, c)
    pts = [(d, a.order()) for d, a in terms if a.is_known_nonzero()]
    if len(pts) < 2:
        # constant or effectively constant polynomial: no roots (or everything,
        # which callers never want)
        return []
    polygon = newton_polygon(pts)
    # uncertain coefficients must sit above the hull of the known ones,
    # otherwise the polygon is unreliable
    for d, a in terms:
        if not a.is_known_nonzero() and not a.is_exact_zero():
            hull_v = _hull_value_at(polygon, d)
            if hull_v is not None and a.precision < hull_v:
                raise PrecisionExhausted("coefficient of T^%d only known modulo u^%d,"
                                         " below the hull" % (d, a.precision))
    roots = []
    if c.is_zero_mod_precision():
        # P(y) + c has the root y = 0 only modulo u^(w - v(c_0)) when c = O(u^w)
        zero_prec = None if c.precision is None else c.precision - P.coeffs[0].order()
        roots.append(field.zero(zero_prec))
    blocking_polygon = None
    for seg in polygon.segments:
        s = -seg.slope
        if s < 0:
            # root would have a pole; integral search skips it
            continue
        if min_val_exclusive is not None and s <= min_val_exclusive:
            continue
        if s.denominator != 1:
            blocking_polygon = blocking_polygon or polygon
            continue
        try:
            roots.extend(_slope_roots(P, c, terms, int(s), depth))
        except ExtensionRequired as exc:
            # keep what that branch found and report the polygon where the
            # fractional slope actually appeared
            roots.extend(exc.roots_found)
            blocking_polygon = blocking_polygon or exc.polygon
    # dedup across branches
    seen = {}
    for key, r in zip(series_keys(roots), roots):
        seen.setdefault(key, r)
    roots = list(seen.values())
    if blocking_polygon is not None:
        raise ExtensionRequired(blocking_polygon, roots_found=roots,
                                message="fractional-slope segment needs a ramified extension")
    return roots


def _hull_value_at(polygon, d):
    vs = polygon.vertices
    for (d1, v1), (d2, v2) in zip(vs, vs[1:]):
        if d1 <= d <= d2:
            return v1 + Fraction(v2 - v1, d2 - d1) * (d - d1)
    return None


def _residue_roots(residue, lead):
    """The nonzero a in the residue field with sum_d lead[d] * a^d = 0, in
    the field's element order.  The sum runs on codes, with a^d read from
    the exp/log tables."""
    tables = _tables(residue)
    add, mul, (exp, log) = tables.add_rows, tables.mul_rows, tables._exp_log
    terms = [(d, mul[b.code]) for d, b in lead.items()]
    out = []
    for a in range(1, tables.q):
        acc = 0
        for d, row in terms:
            acc = add[acc][row[exp[log[a] * d % (tables.q - 1)]]]
        if not acc:
            out.append(FqElement(residue, a))
    return out


def _slope_roots(P, c, terms, s, depth):
    """Roots of P(T) + c of valuation exactly s (an integer, in the field's
    own units).  A residue root is simple exactly when c_0 reaches the
    lowest level h, since the derivative is c_0."""
    field = P.field
    levels = [(d, a.order() + s * d, a) for d, a in terms if a.is_known_nonzero()]
    h = min(v for _, v, _ in levels)
    lead = {d: a.leading_coeff() for d, v, a in levels if v == h}
    out = []
    for cand in _residue_roots(field.residue, lead):
        t0 = make_element(field, s, (cand,), None)
        if 1 in lead:
            out.append(_newton_root(P, c, t0))
            continue
        try:
            sub = find_integral_roots(P, P(t0) + c, depth + 1, min_val_exclusive=s)
        except ExtensionRequired as exc:
            raise ExtensionRequired(
                exc.polygon,
                roots_found=[t0 + y for y in exc.roots_found] + out,
                message=str(exc)) from None
        out.extend(t0 + y for y in sub)
    return out


def _newton_root(P, c, x):
    """Newton iteration x <- x - (P(x) + c) / c_0 from a simple approximate
    root, stopped at the coefficients' least precision (the field's default
    for exact ones).  At a simple root the correction has order
    ord(P(x) + c) - v(c_0), so x is known to that order: the iteration stops
    once it reaches the stop order, or returns x truncated to it when the
    residual is zero to its own precision, short of the stop order.  Iterates
    are truncated at the stop order, and c_0 is inverted only as far as the
    step needs: to the stop order less the residual's order."""
    field = P.field
    finite = [a.precision for a in (c,) + P.coeffs if a.precision is not None]
    stop_order = min(finite) if finite else field.default_precision
    v0 = P.coeffs[0].order()
    prev = None
    x = x.truncate(stop_order)
    for _ in range(field.default_precision + FIXED_POINT_EXTRA_ITERATIONS):
        res = P(x) + c
        o = res.order_lower_bound()
        if o - v0 >= stop_order:
            return x
        if res.is_zero_mod_precision():
            return x.truncate(o - v0)
        if prev is not None and o <= prev:
            raise NoConvergence("Newton iteration stalled at residual order %r" % (o,))
        prev = o
        x = (x - res * P.coeffs[0].inv(precision=stop_order - o)).truncate(stop_order)
    raise NoConvergence("Newton iteration did not reach working precision")


def additive_roots_in_field(P: AdditivePolynomial, rhs):
    """All solutions of P(T) = rhs lying in the polynomial's field.

    The polynomial must be separable (nonzero linear coefficient).  Raises
    ExtensionRequired -- carrying the Newton polygon and the roots already
    found -- when solutions live only in residue enlargements or ramified
    extensions.
    """
    require_separable(P)
    c = P.field.zero()
    if rhs is not None:
        c = c - rhs
    roots = find_integral_roots(P, c)
    pts = [(d, a.order()) for d, a in _terms(P, c) if a.is_known_nonzero()]
    if len(pts) < 2:
        return roots
    polygon = newton_polygon(pts)
    # the polygon puts this many roots at integer slopes, an upper bound for
    # what can lie in the field: equality is the completeness check (a
    # separable polynomial has T = 0 once)
    expected = 1 if c.is_zero_mod_precision() else 0
    expected += sum(seg.length for seg in polygon.segments
                    if seg.slope <= 0 and seg.slope.denominator == 1)
    if len(roots) < expected:
        raise ExtensionRequired(polygon, roots_found=roots,
                                message="only %d of %d polygon-predicted roots lie in the"
                                        " field (residue enlargement needed)"
                                        % (len(roots), expected))
    return roots


# --- tower container -------------------------------------------------------------


@dataclass(eq=False)
class FieldTower:
    """A chain of local fields built over a root, with declared uniformizers.

    Levels are appended as extensions get built.
    """

    root: LocalFieldSpec

    def __post_init__(self):
        self.levels = []

    @property
    def top(self):
        return self.levels[-1] if self.levels else self.root

    def push(self, spec: LocalFieldSpec):
        if spec.base is not self.top:
            raise NotInTower("new level must extend the current top field")
        self.levels.append(spec)
        return spec
