"""Walkthrough: Newton polygons predict root valuations; the root finder
realizes them, and fractional slopes signal genuine ramification.

The running example is the height-2 specialization t*T + T^2 + T^4 over
F_2((t)): one root of valuation 1 lives in the base field, while the two
valuation-0 roots generate a wildly ramified quadratic extension presented by
the exact relation t = pi^2 + pi^3.
"""

from omod import base_field
from omod.additive import AdditivePolynomial
from omod.errors import ExtensionRequired
from omod.tower import additive_roots_in_field, ramified_extension, root_uniformizer_image

F = base_field(2, 1, precision=48)
t = F.uniformizer_elt()
P = AdditivePolynomial(F, (t, F.one(), F.one()), 1)
print("P(T) =", P)

polygon = P.newton_polygon_of_roots()
print("polygon segments:", polygon)
print("predicted nonzero-root valuations:", polygon.root_valuation_list())

try:
    additive_roots_in_field(P, None)
except ExtensionRequired as exc:
    print("\nin-field search found %d roots and stopped at polygon %r"
          % (len(exc.roots_found), exc.polygon))
    for r in exc.roots_found:
        print("   root:", r)

# The missing pair: substitute T = 1 + pi and declare pi the uniformizer;
# the relation t = pi^2(1 + pi) is exact.
def t_in_pi(fld):
    pi = fld.uniformizer_elt()
    return pi ** 2 + pi ** 3

L, emb = ramified_extension(F, 2, t_in_pi, uniformizer="pi")
print("\nwild quadratic extension with t =", emb.image_of_base_uniformizer)

tL = root_uniformizer_image(L)
PL = AdditivePolynomial(L, (tL, L.one(), L.one()), 1)
roots = additive_roots_in_field(PL, None)
print("full root set over the extension (%d roots):" % len(roots))
for r in roots:
    v = r.valuation() if r.is_known_nonzero() else "infinity"
    print("   v = %-8s %r" % (v, r))
