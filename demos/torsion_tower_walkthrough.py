"""Walkthrough: build the torsion tower of t*T + T^3 over F_3((t)) to level 2,
inspect the uniformizer relations, verify the substitution character, and
check the exact torsion valuations.
"""

from omod import base_field
from omod.lubintate import (build_tower, verify_character,
                            verify_torsion_valuations)

F = base_field(3, 1, precision=48)
print("base field:", F)

lt = build_tower(F, 2)
print("tower degrees over the base:", [lt.degree(k) for k in (1, 2)])

for k, (spec, lam) in enumerate(lt.levels, start=1):
    emb = spec.embedding
    print("level %d: uniformizer %s, base uniformizer = %r"
          % (k, spec.uniformizer, emb.image_of_base_uniformizer))

# Every unit a of o/t^2 gives a substitution lam_2 -> [a](lam_2); the map is a
# group isomorphism onto (o/t^2)^x and fixes the embedded base field.
table = verify_character(lt)
print("\nsubstitution group order:", len(table.table))
for key in sorted(table.table):
    a, sigma = table.table[key]
    print("  a = %-8r lam_2 -> %r" % (a, sigma.image_of_uniformizer))

# The torsion points of the height-one model have exact valuations
# 1/((q-1) q^(k-1)) at exact level k (v(t) = 1).
report = verify_torsion_valuations(lt.torsion(2))
print("\ntorsion valuations:", report["per_level"],
      "primitive value:", report["primitive_valuation"])
