"""The dense-polynomial root search that omod.tower replaced, kept as the
oracle for the additive search.

It runs on the full coefficient list a_0 .. a_(q^n) of P(T) - rhs: residue
roots by a power loop over every degree, Newton steps by Horner evaluation of
the polynomial and its dense derivative, and repeated residue roots by a
binomial shift of every coefficient.  The additive search must give the same
roots and raise the same exceptions on every input.  The residue-root sum on
FqElement products and powers is the oracle for the one on codes.

ramified_extension_by_relation is the fixed-point relation solver that
omod.tower replaced by passing closed-form images straight to
ramified_extension; it stays as the oracle for those images and as the way
tests build extensions from relations that really iterate.
"""

from fractions import Fraction

from omod.additive import require_separable
from omod.errors import ExtensionRequired, NoConvergence, PrecisionExhausted
from omod.newton import newton_polygon
from omod.series import LocalFieldSpec, make_element, series_keys
from omod.tower import FIXED_POINT_EXTRA_ITERATIONS, ramified_extension


def to_dense_coeffs(P):
    """Plain T-power coefficient list [a_0, a_1, ..., a_deg] of an additive P."""
    zero = P.field.zero()
    out = [zero] * (P.q ** P.qdegree + 1)
    for i, c in enumerate(P.coeffs):
        out[P.q ** i] = c
    return out


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


def dense_integral_roots(coeffs, field, depth=0, min_val_exclusive=None):
    """All roots of sum coeffs[i] T^i with valuation >= 0 lying in `field`.

    Strategy: Newton polygon; per integer slope, substitute T = u^s S, read the
    residue equation, lift simple residue roots by Newton iteration, and
    recurse on a shifted polynomial when a residue root is multiple.  A
    recursion at scale s only accepts refinements of valuation > s (other
    branches own the rest); that is what min_val_exclusive enforces.  Segments
    with fractional slope (and residue roots missing from the residue field)
    are reported via ExtensionRequired carrying the polygon and whatever was
    found in the field.  Roots are told apart by series_keys.
    """
    depth_limit = field.default_precision + FIXED_POINT_EXTRA_ITERATIONS
    if depth > depth_limit:
        raise NoConvergence("root-search recursion exceeded depth %d" % depth_limit)
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
        # known only modulo u^(w - v(a_1)) when a_0 = O(u^w)
        w = coeffs[0].precision
        roots.append(field.zero(None if w is None else w - coeffs[1].order()))
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
            roots.extend(_roots_on_integer_slope(coeffs, field, int(s), depth))
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
    if d < vs[0][0] or d > vs[-1][0]:
        return None
    for (d1, v1), (d2, v2) in zip(vs, vs[1:]):
        if d1 <= d <= d2:
            return v1 + Fraction(v2 - v1, d2 - d1) * (d - d1)
    return None


def _roots_on_integer_slope(coeffs, field, s, depth):
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
                sub = dense_integral_roots(shifted, field, depth + 1, min_val_exclusive=s)
            except ExtensionRequired as exc:
                raise ExtensionRequired(
                    exc.polygon,
                    roots_found=[t0 + y for y in exc.roots_found] + out,
                    message=str(exc)) from None
            out.extend(t0 + y for y in sub)
    return out


def _newton_lift(coeffs, x, field):
    """Plain Newton iteration from a simple approximate root, stopped at the
    coefficients' least precision (the field's default for exact ones).

    x is known to the residual's order less the derivative's: the iteration
    stops once that reaches the stop order, or returns x truncated to it
    when the residual is zero to its own precision.  Iterates are truncated
    at the stop order: with exact inputs the polynomial degree of the
    iterate would otherwise double every step.  The derivative is inverted
    to the stop order less the residual's order, as far as the step needs.
    """
    finite = [c.precision for c in coeffs if c.precision is not None]
    stop_order = min(finite) if finite else field.default_precision
    dcoeffs = poly_derivative(coeffs)
    prev = None
    x = x.truncate(stop_order)
    for _ in range(field.default_precision + FIXED_POINT_EXTRA_ITERATIONS):
        res = poly_eval(coeffs, x)
        dval = poly_eval(dcoeffs, x)
        o = res.order_lower_bound()
        if o - dval.order() >= stop_order:
            return x
        if res.is_zero_mod_precision():
            return x.truncate(o - dval.order())
        if prev is not None and o <= prev:
            raise NoConvergence("Newton iteration stalled at residual order %r" % (o,))
        prev = o
        x = (x - res * dval.inv(precision=stop_order - o)).truncate(stop_order)
    raise NoConvergence("Newton iteration did not reach working precision")


def dense_additive_roots(P, rhs):
    """All solutions of P(T) = rhs lying in the polynomial's field.

    The polynomial must be separable (nonzero linear coefficient).  Raises
    ExtensionRequired -- carrying the Newton polygon and the roots already
    found -- when solutions live only in residue enlargements or ramified
    extensions.
    """
    require_separable(P)
    field = P.field
    dense = to_dense_coeffs(P)
    if rhs is not None:
        dense[0] = dense[0] - rhs
    roots = dense_integral_roots(dense, field)
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


def reference_residue_roots(residue, lead):
    """The nonzero a in the residue field with sum_d lead[d] * a^d = 0, in
    the field's element order, by FqElement products and powers."""
    out = []
    for a in residue.elements():
        acc = residue.zero()
        for d, b in lead.items():
            acc = acc + b * a ** d
        if acc.is_zero() and not a.is_zero():
            out.append(a)
    return out


def ramified_extension_by_relation(base: LocalFieldSpec, e: int, relation,
                                   precision=None, uniformizer=None):
    """ramified_extension with the image solved by fixed-point iteration:
    relation(field, current) returns the next image from the current guess
    (zero on the first call).  Each correction must have strictly higher
    order, within precision + 8 calls; an image is accepted once one more
    call leaves it unchanged modulo u^precision."""
    precision = precision if precision is not None else base.default_precision

    def fixed_point(spec):
        current = spec.zero(precision=precision)
        prev_gain = -1
        for _ in range(precision + FIXED_POINT_EXTRA_ITERATIONS):
            raw = relation(spec, current)
            new = raw.truncate(precision)
            corr = new - current
            if corr.is_zero_mod_precision():
                # keep exact closed forms exact: a relation whose fixed point is
                # an exact series re-substitutes to itself with zero residual
                if raw.is_exact() and (relation(spec, raw) - raw).is_exact_zero():
                    return raw
                return new
            gain = corr.order_lower_bound()
            if gain <= prev_gain:
                raise NoConvergence(
                    "relation is not contracting (correction order %r after %r)"
                    % (gain, prev_gain))
            prev_gain = gain
            current = new
        raise NoConvergence("fixed point did not stabilize within %d iterations"
                            % (precision + FIXED_POINT_EXTRA_ITERATIONS))

    return ramified_extension(base, e, fixed_point, precision, uniformizer)

