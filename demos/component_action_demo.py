"""Walkthrough: the component group (o/t^2)^x for q = 2 with its three
structure maps, the verified action table, and the character decomposition of
the degree-zero invariants.
"""

import random

from omod.pi0 import (characters_to_csv, h0_decomposition, pi0_action_table,
                      reduced_norm)

action = pi0_action_table(2, 1, 2, 2, rng=random.Random(0))
G = action.group
print("unit group (o/t^2)^x for q=2: order %d, invariant factors %s"
      % (G.order, G.invariant_factors))

# An elementary matrix has determinant 1 and must fix every component.
elementary = action.gl_gens[0]
print("\nelementary generator acts as:",
      action.component_table(g=elementary))

# A scalar unit b = a0 of the endomorphism order acts by the inverse of its
# reduced norm, which on scalars is the coefficient-Frobenius norm; pick one
# with a nontrivial norm so the components actually move.
a0 = next(a for a in action.order.big.units()
          if reduced_norm(action.order, action.order.scalar(a)) != G.ring.one())
b = action.order.scalar(a0)
print("\nscalar %r has reduced norm %r" % (a0, reduced_norm(action.order, b)))
print("it moves components by:", action.component_table(b=b))

# The Galois side acts through the inverse of its character value.
tau_value = G.elements[-1]
print("\na Galois class with character value %r acts by:" % (tau_value,))
print(action.component_table(tau_chi=tau_value))

# Degree-zero invariants: one summand per character of the unit group.
_, chars, rows = h0_decomposition(2, 1, 2, group=G)
print("\n%d characters; CSV form:\n%s" % (len(rows), characters_to_csv(rows)))
