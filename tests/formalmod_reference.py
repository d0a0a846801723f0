"""Exhaustive checkers of a torsion table and of its level structures, kept as
test oracles: the o/t^m-module structure of the point table (a bijective
structure map, closure under addition and the [a]-action on every pair and
every point), and the Drinfeld condition that the level-1 images of a level
structure multiply out to the [t]-polynomial.  Also the torsion chain solved
by linear fixed-point iteration at every level, the oracle of the Newton solve
in build_torsion_chain.  And the composed [a]-polynomial with the pairwise
character composition law, the oracles of the [t]-iterate action and of the
generator check in verify_character.  And the restriction and determinant
rows checked by one substitution per unit, the oracles of the rows that
character_restriction_consistent and verify_determinant_character derive
from the generators."""

import itertools

from omod.additive import AdditivePolynomial
from omod.errors import CharacterViolation, DeterminantMismatch, StructureViolation
from omod.finitefield import embed_fq
from omod.formalmod import LevelStructure, act, coord_key, lubin_tate_module, t_iterates
from omod.lubintate import CHARACTER_FIXED_TERMS, DETERMINANT_MATCH_TERMS, RESTRICTION_TERMS
from omod.quotring import OModElement, OModRing
from omod.series import base_field, series_keys, substitute
from omod.tower import apply_automorphism, root_uniformizer_image, unramified_extension

from tower_reference import ramified_extension_by_relation, to_dense_coeffs


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
    index = dict(zip(series_keys(Tm.points.values()), Tm.points))
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
            its = t_iterates(Tm.module, Tm.points[kv], a.ring.m)
            if not act(a, its).agrees(Tm.points[coord_key(scaled)]):
                raise StructureViolation("[a]-action fails at a=%r, v=%r" % (a, kv))
    return {"cardinality": len(items), "rank": Tm.rank}


def zero_level_structure(Tm):
    matrix = [[Tm.ring.zero() for _ in range(Tm.rank)] for _ in range(Tm.rank)]
    return LevelStructure(Tm, matrix)


def level_one_images(phi):
    """phi(v) for every v in the level-1 sublattice t^(m-1) (o/t^m)^n."""
    Tm = phi.torsion
    ring = Tm.ring
    q = ring.residue.q
    low = [OModElement(ring, k * q ** (Tm.level - 1)) for k in range(q)]     # k t^(m-1)
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


def multiply_by(a, X, target=None):
    """The multiplication [a] for a = sum a_j t^j in o'/t^M as one additive
    polynomial of degree q^(n(M-1)): the sum of the scalar-scaled composites
    a_j * [t]^(o j)."""
    field = target or X.field
    P = X.embedded_t_action(field)

    def scalar(c):
        return AdditivePolynomial(field, (field.constant(embed_fq(c, field.residue)),), P.qexp)

    total = None
    composite = AdditivePolynomial(field, (field.one(),), P.qexp)  # [t]^0 = T
    for j, aj in enumerate(a.coeffs):
        if j > 0:
            composite = P.compose(composite)
        if not aj.is_zero():
            term = scalar(aj).compose(composite)
            total = term if total is None else _poly_add(total, term)
    if total is None:
        return AdditivePolynomial(field, (field.zero(),), P.qexp)  # the zero map
    return total


def composed_orbit_basis(X, m, top, lam):
    """The o-basis [x^j](lam) of the orbit model's level-m torsion, x the
    residue generator, each [x^j] a composed polynomial."""
    big = OModRing(X.field.residue, m)
    xgen = X.field.residue.gen() if X.n > 1 else X.field.residue.one()
    return [multiply_by(big.element([xgen ** j]), X, target=top)(lam) for j in range(X.n)]


def composed_torsion_points(X, m, top, basis):
    """{coordinate key: sum_i [v_i](b_i)} over (o/t^m)^rank, each [v_i] a
    composed polynomial evaluated at the basis point b_i."""
    ring = OModRing(X.field.root.residue, m)
    points = {}
    for vec in itertools.product(ring.elements(), repeat=len(basis)):
        acc = top.zero()
        for v, b in zip(vec, basis):
            acc = acc + multiply_by(v, X, target=top)(b)
        points[coord_key(vec)] = acc
    return points


def _poly_add(P, Q):
    zero = P.field.zero()
    n = max(len(P.coeffs), len(Q.coeffs))
    out = [(P.coeffs[i] if i < len(P.coeffs) else zero) +
           (Q.coeffs[i] if i < len(Q.coeffs) else zero) for i in range(n)]
    while len(out) > 1 and out[-1].is_zero_mod_precision() and out[-1].precision is None:
        out.pop()
    return AdditivePolynomial(P.field, tuple(out), P.qexp)


def pairwise_composition_law(table):
    """sigma_a o sigma_b = sigma_(ab) for every pair of units of a
    CharacterTable, to CHARACTER_FIXED_TERMS terms."""
    entries = table.table
    for a, sig_a in entries.values():
        for b, sig_b in entries.values():
            composed = apply_automorphism(sig_a, sig_b.image_of_uniformizer)
            direct = entries[(a * b).codes][1].image_of_uniformizer
            if not composed.agrees(direct, min_terms=CHARACTER_FIXED_TERMS):
                raise CharacterViolation("composition law fails at (%r, %r)" % (a, b))


def restriction_per_unit(lt):
    """sigma_a(lam_(m-1)) = [a mod t^(m-1)](lam_(m-1)) for every unit a of
    the tower's top level m, one substitution per unit, to RESTRICTION_TERMS
    terms."""
    m = lt.m_max
    if m < 2:
        return True
    lower = lt.iterates(m - 1)
    for a in lt.unit_ring(m).units():
        moved = apply_automorphism(lt.torsion_automorphism(a), lower[0])
        if not moved.agrees(act(a.reduce_to(m - 1), lower), min_terms=RESTRICTION_TERMS):
            return False
    return True


def determinant_per_unit(lt):
    """The rows (a, N(a), c) of verify_determinant_character with c decoded
    for every unit a: sigma_a(mu) = [c](mu) to DETERMINANT_MATCH_TERMS terms,
    and c must be N(a)."""
    m = lt.m_max
    root_res = lt.base.root.residue
    mu = lt.base_chain()[-1]
    iterates = t_iterates(lubin_tate_module(lt.base.root, 1), mu, m + 1)
    if not iterates.pop().is_zero_mod_precision():
        raise DeterminantMismatch("mu is not t^m-torsion")
    base_units = list(OModRing(root_res, m).units())
    decode = {c: act(c, iterates) for c in base_units}
    rows = []
    for a in OModRing(lt.base.residue, m).units():
        moved = apply_automorphism(lt.torsion_automorphism(a), mu)
        matched = [c for c in base_units
                   if moved.agrees(decode[c], min_terms=DETERMINANT_MATCH_TERMS)]
        if not matched:
            raise DeterminantMismatch("sigma_a(mu) is not [c](mu) for any unit c; a = %r" % (a,))
        norm = a.norm_to(root_res)
        if matched[0] != norm:
            raise DeterminantMismatch(
                "sigma_%r moves mu by [%r], but N(a) = %r" % (a, matched[0], norm))
        rows.append((a, norm, matched[0]))
    if len({c for _, _, c in rows}) != len(base_units):
        raise DeterminantMismatch("decoded torsion characters do not cover the unit group")
    return rows
