"""Towers of local fields: unramified enlargements, ramified extensions with
declared uniformizers, embeddings, automorphisms, and root finding.

A ramified extension is always presented by a declared uniformizer together
with the base uniformizer expressed as a series in it; that makes valuations
and Galois actions computable by direct substitution.  The series comes from
a caller-supplied relation solved by fixed-point iteration (exact relations
converge in one step).
"""

from __future__ import annotations

from dataclasses import dataclass

from .additive import AdditivePolynomial, require_separable
from .errors import (ExtensionRequired, MixedFields, NoConvergence,
                     NotInTower, PrecisionExhausted)
from .finitefield import GF
from .newton import newton_polygon
from .series import (BaseEmbedding, FqEmbedding, LocalFieldElement,
                     LocalFieldSpec, make_element, substitute)

FIXED_POINT_EXTRA_ITERATIONS = 8


def unramified_extension(base: LocalFieldSpec, k: int, uniformizer=None):
    """Residue field grows by degree k; the uniformizer stays (maps to the
    new field's uniformizer exactly)."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    new_residue = GF(base.residue.p, base.residue.f * k)  # CapExceeded inside GF
    spec = LocalFieldSpec(
        residue=new_residue,
        uniformizer=uniformizer or base.uniformizer,
        ramification_index=1,
        residue_degree=k,
        base=base,
        default_precision=base.default_precision,
    )
    spec.embedding = BaseEmbedding(
        image_of_base_uniformizer=spec.uniformizer_elt(),
        coefficient_embedding=FqEmbedding(base.residue, new_residue),
    )
    return spec


def ramified_extension_by_relation(base: LocalFieldSpec, e: int, relation,
                                   precision=None, uniformizer=None):
    """Totally ramified extension of degree e with a declared uniformizer.

    relation(field, current) must return the image of the base uniformizer as
    a series in the new field, where `current` is the present guess for that
    image (zero on the first call).  Each substitution must strictly increase
    the valuation of the correction; the iteration cap is precision + 8.

    Returns (spec, embedding).
    """
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    precision = precision if precision is not None else base.default_precision
    spec = LocalFieldSpec(
        residue=base.residue,
        uniformizer=uniformizer or (base.uniformizer + "'"),
        ramification_index=e,
        residue_degree=1,
        base=base,
        default_precision=precision,
    )
    current = spec.zero(precision=precision)
    prev_gain = -1
    for _ in range(precision + FIXED_POINT_EXTRA_ITERATIONS):
        raw = relation(spec, current)
        new = raw.truncate(precision)
        corr = new - current
        if corr.is_zero_mod_precision():
            # keep exact closed forms exact: a relation whose fixed point is an
            # exact series re-substitutes to itself with zero residual
            if raw.is_exact():
                resub = relation(spec, raw) - raw
                if resub.is_exact_zero():
                    new = raw
            if new.order() != e:
                raise NoConvergence("relation image has order %r, expected e = %d"
                                    % (new.order_lower_bound(), e))
            spec.embedding = BaseEmbedding(
                image_of_base_uniformizer=new,
                coefficient_embedding=FqEmbedding(base.residue, spec.residue),
            )
            return spec, spec.embedding
        gain = corr.order_lower_bound()
        if gain <= prev_gain:
            raise NoConvergence(
                "relation is not contracting (correction order %r after %r)"
                % (gain, prev_gain))
        prev_gain = gain
        current = new
    raise NoConvergence("fixed point did not stabilize within %d iterations"
                        % (precision + FIXED_POINT_EXTRA_ITERATIONS))


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
        x = substitute(x, emb.image_of_base_uniformizer,
                       coeff_map=emb.coefficient_embedding)
    return x


def root_uniformizer_image(spec: LocalFieldSpec) -> LocalFieldElement:
    """The root field's uniformizer embedded all the way up into spec."""
    return embed(spec.root.uniformizer_elt(), spec)


@dataclass(eq=False)
class FieldAutomorphism:
    """Automorphism of a tower field over its root: substitute the uniformizer
    and twist residue coefficients by a Frobenius power."""

    field: LocalFieldSpec
    image_of_uniformizer: LocalFieldElement
    residue_frobenius_power: int = 0

    def __post_init__(self):
        if self.image_of_uniformizer.field is not self.field:
            raise MixedFields("uniformizer image must live in the automorphism's field")

    def __call__(self, x):
        return apply_automorphism(self, x)

    def compose(self, other):
        """self o other."""
        if self.field is not other.field:
            raise MixedFields("automorphisms of different fields")
        return FieldAutomorphism(
            self.field,
            apply_automorphism(self, other.image_of_uniformizer),
            (self.residue_frobenius_power + other.residue_frobenius_power)
            % self.field.residue.f,
        )


def apply_automorphism(sigma: FieldAutomorphism, x: LocalFieldElement):
    if x.field is not sigma.field:
        raise MixedFields("element lives in %r, automorphism acts on %r"
                          % (x.field, sigma.field))
    return substitute(x, sigma.image_of_uniformizer,
                      frobenius_power=sigma.residue_frobenius_power)


# --- polynomial root finding ------------------------------------------------------


def poly_eval(coeffs, x):
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    field = coeffs[0].field
    p = field.residue.p
    out = []
    for i in range(1, len(coeffs)):
        out.append(coeffs[i].scale(field.residue.from_int(i % p)))
    return out or [field.zero()]


def poly_shift(coeffs, t0):
    """Coefficients of g(t0 + y) as a polynomial in y."""
    field = t0.field
    p = field.residue.p
    n = len(coeffs)
    binom = [[0] * n for _ in range(n)]
    for i in range(n):
        binom[i][0] = 1
        for k in range(1, i + 1):
            binom[i][k] = binom[i - 1][k - 1] + binom[i - 1][k]
    out = [field.zero() for _ in range(n)]
    powers = [field.one()]
    for _ in range(n - 1):
        powers.append(powers[-1] * t0)
    for i, c in enumerate(coeffs):
        if c.is_zero_mod_precision() and c.precision is None:
            continue
        for k in range(i + 1):
            b = binom[i][k] % p
            if b:
                term = c.scale(field.residue.from_int(b)) * powers[i - k]
                out[k] = out[k] + term
    return out


def _coefficient_points(coeffs):
    """(degree, order) pairs for the polygon; uncertain coefficients must sit
    above the hull of the known ones, otherwise the polygon is unreliable."""
    pts = []
    uncertain = []
    for i, c in enumerate(coeffs):
        if c.is_known_nonzero():
            pts.append((i, c.order()))
        elif not c.is_exact_zero():
            uncertain.append((i, c.precision))
    return pts, uncertain


def find_integral_roots(coeffs, field, depth=0, max_depth=None, key_terms=64,
                        min_val_exclusive=None):
    """All roots of sum coeffs[i] T^i with valuation >= 0 lying in `field`.

    Strategy: Newton polygon; per integer slope, substitute T = u^s S, read the
    residue equation, lift simple residue roots by Newton iteration, and
    recurse on a shifted polynomial when a residue root is multiple.  A
    recursion at scale s only accepts refinements of valuation > s (other
    branches own the rest); that is what min_val_exclusive enforces.  Segments
    with fractional slope (and residue roots missing from the residue field)
    are reported via ExtensionRequired carrying the polygon and whatever was
    found in the field.
    """
    if max_depth is None:
        max_depth = field.default_precision + FIXED_POINT_EXTRA_ITERATIONS
    if depth > max_depth:
        raise NoConvergence("root-search recursion exceeded depth %d" % max_depth)
    pts, uncertain = _coefficient_points(coeffs)
    if len(pts) < 2:
        # constant or effectively constant polynomial: no roots (or everything,
        # which callers never want)
        return []
    polygon = newton_polygon(pts)
    for d, pr in uncertain:
        hull_v = _hull_value_at(polygon, d)
        if pr is not None and hull_v is not None and pr < hull_v:
            raise PrecisionExhausted(
                "coefficient of T^%d only known modulo u^%d, below the hull" % (d, pr))
    roots = []
    blocking_polygon = None
    ord_t = polygon.vertices[0][0]
    if ord_t > 0 and coeffs[0].is_zero_mod_precision():
        roots.append(field.zero())
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
            roots.extend(_roots_on_integer_slope(coeffs, field, int(s), depth,
                                                 max_depth, key_terms))
        except ExtensionRequired as exc:
            # keep what that branch found and report the polygon where the
            # fractional slope actually appeared
            roots.extend(exc.roots_found)
            blocking_polygon = blocking_polygon or exc.polygon
    # dedup across branches
    seen = {}
    for r in roots:
        seen.setdefault(r.series_key(terms=key_terms), r)
    roots = list(seen.values())
    if blocking_polygon is not None:
        raise ExtensionRequired(blocking_polygon, roots_found=roots,
                                message="fractional-slope segment needs a ramified extension")
    return roots


def _hull_value_at(polygon, d):
    vs = polygon.vertices
    if d < vs[0][0] or d > vs[-1][0]:
        return None
    for (d1, v1), (d2, v2) in zip(vs, vs[1:]):
        if d1 <= d <= d2:
            from fractions import Fraction

            return v1 + Fraction(v2 - v1, d2 - d1) * (d - d1)
    return None


def _roots_on_integer_slope(coeffs, field, s, depth, max_depth, key_terms):
    """Roots of valuation exactly s (an integer, in the field's own units)."""
    orders = []
    for i, c in enumerate(coeffs):
        if c.is_known_nonzero():
            orders.append((i, c.order() + s * i))
    h = min(o for _, o in orders)
    residue_terms = {}
    for i, c in enumerate(coeffs):
        if c.is_known_nonzero() and c.order() + s * i == h:
            residue_terms[i] = c.leading_coeff()
    out = []
    for cand in field.residue.elements():
        if cand.is_zero():
            continue
        val = field.residue.zero()
        deriv = field.residue.zero()
        power = field.residue.one()
        prev_power = None
        for i in range(max(residue_terms) + 1):
            if i in residue_terms:
                val = val + residue_terms[i] * power
                if i % field.residue.p != 0 and prev_power is not None:
                    deriv = deriv + residue_terms[i] * prev_power * \
                        field.residue.from_int(i % field.residue.p)
            prev_power = power
            power = power * cand
        if not val.is_zero():
            continue
        t0 = make_element(field, s, (cand,), None)
        if not deriv.is_zero():
            root = _newton_lift(coeffs, t0, field)
            if root is not None:
                out.append(root)
        else:
            shifted = poly_shift(coeffs, t0)
            try:
                sub = find_integral_roots(shifted, field, depth + 1, max_depth,
                                          key_terms, min_val_exclusive=s)
            except ExtensionRequired as exc:
                raise ExtensionRequired(
                    exc.polygon,
                    roots_found=[t0 + y for y in exc.roots_found] + out,
                    message=str(exc)) from None
            out.extend(t0 + y for y in sub)
    return out


def _newton_lift(coeffs, x, field, max_iter=None, stop_order=None):
    """Plain Newton iteration from a simple approximate root.

    Iterates are truncated at the working precision: with exact inputs the
    polynomial degree of the iterate would otherwise double every step.
    """
    if max_iter is None:
        max_iter = field.default_precision + FIXED_POINT_EXTRA_ITERATIONS
    if stop_order is None:
        finite = [c.precision for c in coeffs if c.precision is not None]
        stop_order = min(finite) if finite else field.default_precision
    dcoeffs = poly_derivative(coeffs)
    prev = None
    x = x.truncate(stop_order)
    for _ in range(max_iter):
        res = poly_eval(coeffs, x)
        if res.is_zero_mod_precision() or res.order_lower_bound() >= stop_order:
            return x
        dval = poly_eval(dcoeffs, x)
        o = res.order_lower_bound()
        if prev is not None and o <= prev:
            raise NoConvergence("Newton iteration stalled at residual order %r" % (o,))
        prev = o
        x = (x - res / dval).truncate(stop_order)
    raise NoConvergence("Newton iteration did not reach working precision")


def additive_roots_in_field(P: AdditivePolynomial, rhs, field=None):
    """All solutions of P(T) = rhs lying in the polynomial's field.

    The polynomial must be separable (nonzero linear coefficient).  Raises
    ExtensionRequired -- carrying the Newton polygon and the roots already
    found -- when solutions live only in residue enlargements or ramified
    extensions.
    """
    require_separable(P)
    field = field or P.field
    if field is not P.field:
        raise MixedFields("polynomial coefficients must live in the search field")
    dense = P.to_dense_coeffs()
    if rhs is not None:
        dense[0] = dense[0] - rhs
    roots = find_integral_roots(dense, field)
    expected = _in_field_count(dense, field)
    if len(roots) < expected:
        pts, _ = _coefficient_points(dense)
        raise ExtensionRequired(newton_polygon(pts), roots_found=roots,
                                message="only %d of %d polygon-predicted roots lie in the"
                                        " field (residue enlargement needed)"
                                        % (len(roots), expected))
    return roots


def _in_field_count(dense, field):
    """Number of roots the polygon puts at integer slopes (an upper bound for
    what can lie in the field; equality is the completeness check)."""
    pts, _ = _coefficient_points(dense)
    if len(pts) < 2:
        return 0
    polygon = newton_polygon(pts)
    count = polygon.vertices[0][0] if dense[0].is_zero_mod_precision() else 0
    if count:
        count = 1  # separable case: T = 0 occurs once
    for seg in polygon.segments:
        s = -seg.slope
        if s >= 0 and s.denominator == 1:
            count += seg.length
    return count


# --- tower container -------------------------------------------------------------


@dataclass(eq=False)
class FieldTower:
    """A chain of local fields built over a root, with declared uniformizers.

    Levels are appended as extensions get built; embed_to_top moves elements
    from any chain field into the current top.
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

    def degree(self):
        d = 1
        for spec in self.levels:
            d *= spec.ramification_index * spec.residue_degree
        return d

    def embed_to_top(self, x):
        return embed(x, self.top)

    def chain(self):
        return [self.root] + list(self.levels)
