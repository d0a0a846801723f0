"""Exhaustive checkers of a torsion table and of its level structures, kept as
test oracles: the o/t^m-module structure of the point table (a bijective
structure map, closure under addition and the [a]-action on every pair and
every point), and the Drinfeld condition that the level-1 images of a level
structure multiply out to the [t]-polynomial.  Also the torsion chain solved
by linear fixed-point iteration at every level, the oracle of the Newton solve
in build_torsion_chain."""

import itertools

from omod.errors import StructureViolation
from omod.formalmod import LevelStructure, coord_key
from omod.series import base_field, substitute
from omod.tower import ramified_extension_by_relation, root_uniformizer_image, \
    unramified_extension

from tower_reference import to_dense_coeffs


def linear_chain_images(p, f, n, m, precision):
    """(leading exponent, codes, precision) of the base-uniformizer image of
    each level of the t*T + T^Q torsion chain over F_(q^n)((t)), q = p^f (None
    for a degree-one level), each level solved by plain steps
    c <- t(c)*lam_k + lam_k^Q from c = 0: one step gains v(F'(c)) terms."""
    F = base_field(p, f, precision=precision)
    top = unramified_extension(F, n) if n > 1 else F
    Q = top.residue.q
    images = []
    for k in range(1, m + 1):
        if k == 1:
            if Q == 2:
                images.append(None)
                continue
            e = Q - 1

            def relation(fld, _cur):
                return -(fld.uniformizer_elt() ** (Q - 1))
        else:
            e = Q
            t_prev = root_uniformizer_image(top)

            def relation(fld, cur, t_prev=t_prev):
                lam_k = fld.uniformizer_elt()
                if cur.is_zero_mod_precision():
                    t_img = fld.zero(precision=cur.precision)
                else:
                    t_img = substitute(t_prev, cur)
                return t_img * lam_k + lam_k ** Q
        top, emb = ramified_extension_by_relation(top, e, relation, precision=precision)
        img = emb.image_of_base_uniformizer
        images.append((img.leading_exponent, img.codes, img.precision))
    return images


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
    t_dense = to_dense_coeffs(phi.torsion.module.embedded_t_action(top))
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
