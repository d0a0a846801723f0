"""Newton polygons: lower convex hulls of (degree, coefficient valuation) points.

The slopes, negated, give the valuations of the polynomial's nonzero roots
over an algebraic closure, each with multiplicity equal to the segment's
horizontal length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .errors import DegeneratePolynomial


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    length: int

    @property
    def root_valuation(self):
        return -self.slope


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple  # ((degree, Fraction valuation), ...), strictly increasing degrees
    segments: tuple  # (Segment, ...), slopes strictly increasing

    def root_valuations(self):
        """Multiset of root valuations as (valuation, multiplicity) pairs,
        sorted by decreasing valuation."""
        out = [(seg.root_valuation, seg.length) for seg in self.segments]
        return sorted(out, key=lambda t: -t[0])

    def root_valuation_list(self):
        out = []
        for v, n in self.root_valuations():
            out.extend([v] * n)
        return out

    def __repr__(self):
        return "NewtonPolygon(%s)" % ", ".join(
            "slope %s x %d" % (s.slope, s.length) for s in self.segments)


def newton_polygon(points):
    """Lower convex hull of (degree, valuation) pairs.

    Valuations may be Fractions, ints, or math.inf / None for "no coefficient".
    At least two finite points are required.
    """
    finite = []
    for d, v in points:
        if v is None or v is math.inf:
            continue
        finite.append((int(d), Fraction(v)))
    if len(finite) < 2:
        raise DegeneratePolynomial("need at least two finite-valuation coefficients")
    finite.sort()
    dedup = {}
    for d, v in finite:
        if d not in dedup or v < dedup[d]:
            dedup[d] = v
    pts = sorted(dedup.items())
    if len(pts) < 2:
        raise DegeneratePolynomial("need at least two distinct degrees")
    hull = []
    for d, v in pts:
        while len(hull) >= 2:
            (d1, v1), (d2, v2) = hull[-2], hull[-1]
            # keep hull lower-convex: drop middle point when it lies on or above
            # the chord from (d1, v1) to (d, v)
            if (v2 - v1) * (d - d1) >= (v - v1) * (d2 - d1):
                hull.pop()
            else:
                break
        hull.append((d, v))
    segments = []
    for (d1, v1), (d2, v2) in zip(hull, hull[1:]):
        segments.append(Segment(Fraction(v2 - v1, d2 - d1), d2 - d1))
    return NewtonPolygon(tuple(hull), tuple(segments))
