"""Exhaustive checkers of a torsion table and of its level structures, kept as
test oracles: the o/t^m-module structure of the point table (a bijective
structure map, closure under addition and the [a]-action on every pair and
every point), and the Drinfeld condition that the level-1 images of a level
structure multiply out to the [t]-polynomial."""

import itertools

from omod.errors import StructureViolation
from omod.formalmod import LevelStructure, coord_key


def omodule_structure_check(Tm):
    """The point table of Tm is an o/t^m-module isomorphic to (o/t^m)^n,
    checked on every pair and every (scalar, point)."""
    index = {pt.series_key(terms=48): key for key, pt in Tm.points.items()}
    if len(index) != len(Tm.points):
        raise StructureViolation("structure map is not injective")
    items = sorted(Tm.coords.items())
    for (ka, va), (kb, vb) in itertools.product(items, repeat=2):
        vsum = tuple(x + y for x, y in zip(va, vb))
        if not (Tm.points[ka] + Tm.points[kb]).agrees(Tm.points[coord_key(vsum)]):
            raise StructureViolation("addition fails at %r + %r" % (ka, kb))
    for a in Tm.ring.elements():
        for kv, vec in items:
            scaled = tuple(a * x for x in vec)
            if not Tm.act(a, Tm.points[kv]).agrees(Tm.points[coord_key(scaled)]):
                raise StructureViolation("[a]-action fails at a=%r, v=%r" % (a, kv))
    return {"cardinality": len(items), "rank": Tm.rank}


def zero_level_structure(Tm):
    matrix = [[Tm.ring.zero() for _ in range(Tm.rank)] for _ in range(Tm.rank)]
    return LevelStructure(Tm, matrix)


def level_one_images(phi):
    """phi(v) for every v in the level-1 sublattice t^(m-1) (o/t^m)^n."""
    Tm = phi.torsion
    ring = Tm.ring
    low = [ring.from_int_digits(k).shift(Tm.level - 1) for k in range(ring.residue.q)]
    return [phi.image_of(vec) for vec in itertools.product(low, repeat=Tm.rank)]


def verify_level_structure(phi, fibre="generic"):
    """Drinfeld condition: prod over the level-1 sublattice of (T - phi(v))
    divides [t](T).  Both are monic of degree q^n, so that holds exactly when
    they are equal: coefficientwise on the generic fibre, after reduction to
    the residue field on the closed one."""
    top = phi.torsion.field
    prod = [top.one()]  # dense polynomial, constant first
    for pt in level_one_images(phi):
        prod = _poly_mul_dense(prod, [-pt, top.one()])
    t_dense = phi.torsion.module.embedded_t_action(top).to_dense_coeffs()
    if fibre == "closed":
        same = lambda a, b: _residue_or_zero(a) == _residue_or_zero(b)
    else:
        same = lambda a, b: a.agrees(b)
    return len(prod) == len(t_dense) and all(same(a, b) for a, b in zip(prod, t_dense))


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
    if not c.is_known_nonzero() or c.order() > 0:
        return c.field.residue.zero()
    return c.leading_coeff()
