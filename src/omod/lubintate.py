"""Torsion towers of the height-one model t*T + T^Q, the torsion character,
torsion-point valuation and product identities, and the norm compatibility of
the torsion action at the multiplication-rich specialization.

All identities are checked as exact rational equalities or as series
agreements to an explicit number of terms; nothing is compared in floating
point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import (CharacterViolation, DeterminantMismatch, OmodError, OrbitNotFree,
                     ValuationMismatch)
from .formalmod import (FormalOModule, TorsionModule, act, bijective_level_structure,
                        build_torsion_chain, coord_key, lubin_tate_module,
                        orbit_torsion_from_generator, t_iterates)
from .pi0 import unit_group
from .quotring import OModElement, OModRing
from .series import LocalFieldSpec, base_field, series_keys
from .tower import (FieldAutomorphism, FieldTower, additive_roots_in_field,
                    apply_automorphism, embed, unramified_extension)


@dataclass(eq=False)
class LubinTateTower:
    """The chain of fields generated by the t^k-torsion of t*T + T^Q over a
    base with residue F_Q, together with the distinguished generators
    lam_k satisfying [t](lam_k) = lam_{k-1}."""

    base: LocalFieldSpec
    module: FormalOModule
    tower: FieldTower
    levels: list                      # [(field_k, lam_k in field_k)]
    m_max: int
    precision: int
    # ("iterates", k), ("automorphism", a), ("torsion", m), "base chain" and
    # "law" -> what iterates, torsion_automorphism, torsion, base_chain and
    # composition_law built, or the OmodError that build raised
    _built: dict = dc_field(default_factory=dict, init=False, repr=False)

    @property
    def top(self):
        return self.tower.top

    def degree(self, k=None):
        """[F_k : base] = (Q-1) Q^(k-1) at level 0 <= k <= m_max."""
        k = self.m_max if k is None else _level(k, 0, self.m_max)
        return 1 if k == 0 else self.levels[k - 1][0].degree_over(self.base)

    def lam(self, k):
        """lam_k, 1 <= k <= m_max, embedded into the top field."""
        lam = self.levels[_level(k, 1, self.m_max) - 1][1]
        return lam if lam.field is self.top else embed(lam, self.top)

    def t_image(self):
        """The base uniformizer t in the top field: c_0 of the [t]-polynomial
        that t_iterates embeds there, so t is embedded once per tower."""
        return self.module.embedded_t_action(self.top).coeffs[0]

    def unit_ring(self, m=None):
        return OModRing(self.base.residue, self.m_max if m is None else m)

    def iterates(self, k):
        """lam_k, [t](lam_k), ..., [t]^(k-1)(lam_k) in the top field, formed
        once per level 1 <= k <= m_max: [a](lam_k) for every a in o/t^k is
        act(a, these)."""
        return _built_once(self._built, ("iterates", _level(k, 1, self.m_max)),
                           lambda: t_iterates(self.module, self.lam(k), k))

    def torsion_automorphism(self, a: OModElement) -> FieldAutomorphism:
        """lam_m -> [a](lam_m), the substitution realizing the Galois action.
        One automorphism per unit and tower, so every check that applies it
        shares its image's power table."""
        if not a.is_unit():
            raise ValueError("torsion substitutions need a unit index")
        return _built_once(self._built, ("automorphism", a), lambda: FieldAutomorphism(
            self.top, act(a, self.iterates(self.m_max))))

    def torsion(self, m=None) -> "TorsionModule":
        """The fully enumerated torsion table at level 1 <= m <= m_max,
        assembled from the existing chain (no new extensions), once per
        level: the checks that take it only read it."""
        m = self.m_max if m is None else m
        if not 1 <= m <= self.m_max:
            raise ValueError("torsion level %d is outside 1..%d" % (m, self.m_max))
        return _built_once(self._built, ("torsion", m), lambda: orbit_torsion_from_generator(
            self.module, m, self.tower, self.lam(m)))

    def base_chain(self):
        """mu_1, ..., mu_m of the height-one root model in the top field
        (locate_base_torsion_chain), searched once per tower."""
        return _built_once(self._built, "base chain",
                           lambda: locate_base_torsion_chain(self.top, self.m_max))

    def composition_law(self):
        """The generators S of the top-level unit group, on which
        check_composition_law has passed: run once per tower, unless
        verify_character recorded its own run."""
        return _built_once(self._built, "law", lambda: check_composition_law(self))


def _level(k, lowest, highest):
    """k, a tower level index from lowest to highest (ValueError otherwise)."""
    if not lowest <= k <= highest:
        raise ValueError("tower level %d is outside %d..%d" % (k, lowest, highest))
    return k


def _built_once(store, key, build):
    """store[key], from build() on first use.  A build that fails is not
    retried: its OmodError is stored and raised again."""
    value = store.get(key)        # no build returns None
    if value is None:
        try:
            value = store[key] = build()
        except OmodError as exc:
            value = store[key] = exc
    if isinstance(value, OmodError):
        raise value
    return value


def build_tower(base: LocalFieldSpec, m: int, precision=None) -> LubinTateTower:
    """Torsion tower to level m; base residue F_Q gives relative degrees
    Q-1, Q, Q, ..."""
    precision = precision or base.default_precision
    n = base.residue.f // base.root.residue.f
    module = lubin_tate_module(base, n)
    tower = FieldTower(base)
    levels = build_torsion_chain(module, m, tower, precision)
    return LubinTateTower(base, module, tower, levels, m, precision)


def cm_tower(q_p, q_f, n, m, precision=64):
    """Tower of the height-n multiplication-rich model: base field F_{q^n}((t))
    built as the degree-n unramified enlargement of F_q((t))."""
    F = base_field(q_p, q_f, precision=precision)
    Fp = unramified_extension(F, n) if n > 1 else F
    return build_tower(Fp, m, precision)


# Series terms on which verify_character, character_restriction_consistent
# and verify_determinant_character require their substitutions to agree.
CHARACTER_FIXED_TERMS = 40
RESTRICTION_TERMS = 32
DETERMINANT_MATCH_TERMS = 40


@dataclass(eq=False)
class CharacterTable:
    """The verified isomorphism a <-> (lam_m -> [a](lam_m)) between the unit
    group of o/t^m and the torsion substitutions over the base."""

    table: dict          # a.codes -> (a, FieldAutomorphism)


def verify_character(lt: LubinTateTower) -> CharacterTable:
    """Check that a -> (lam_m -> [a](lam_m)) is a group isomorphism from
    (o/t^m)^x onto the substitution group at the tower's top level m, with
    every substitution fixing the embedded base field to at least
    CHARACTER_FIXED_TERMS series terms.

    sigma_a(lam_m) = [a](lam_m) = sum_j a_j [t]^j(lam_m) for a = sum a_j t^j
    (act), exact because the module is linear over its residue field.

    Every unit's substitution is checked to fix the base uniformizer, one
    substitution per unit.  The composition law is check_composition_law,
    run here on every call and then recorded on the tower for
    character_restriction_consistent and verify_determinant_character."""
    m = lt.m_max
    ring = lt.unit_ring(m)
    t_img = lt.t_image()
    table = {}
    images = {}
    units = [(a, lt.torsion_automorphism(a)) for a in ring.units()]
    keys = series_keys([sigma.image_of_uniformizer for _, sigma in units])
    for (a, sigma), key in zip(units, keys):
        _check_fixes_base(a, sigma, t_img)
        if key in images:
            raise CharacterViolation("substitutions by %r and %r coincide"
                                     % (a, images[key]))
        images[key] = a
        table[a.codes] = (a, sigma)
    lt._built["law"] = check_composition_law(lt)
    return CharacterTable(table)


def _check_fixes_base(a, sigma, t_img):
    moved = apply_automorphism(sigma, t_img)
    if not moved.agrees(t_img, min_terms=CHARACTER_FIXED_TERMS):
        raise CharacterViolation(
            "substitution by %r moves the embedded base uniformizer: %r vs %r"
            % (a, moved, t_img))


def check_composition_law(lt: LubinTateTower) -> list:
    """For each g in the generators S of unit_group at the tower's top level
    m: sigma_g fixes the embedded base uniformizer, and
    sigma_g o sigma_b = sigma_(gb) for every unit b of o/t^m, each to
    CHARACTER_FIXED_TERMS terms.  Returns the generators.

    unit_group certifies that S spans the units, so this proves the law on
    all pairs.  Let H be the set of b with sigma_b o sigma_a = sigma_(ba)
    for every a.  Then 1 is in H, as sigma_1(lam_m) = lam_m exactly.  If b
    is in H and g in S, then
    sigma_(gb) o sigma_a = sigma_g o sigma_b o sigma_a = sigma_(gba), so gb
    is in H.  So H is the group S spans: every unit.  By the same induction
    every sigma_a fixes the base uniformizer t:
    sigma_(gb)(t) = sigma_g(sigma_b(t)) = sigma_g(t) = t.  Each sigma maps
    the uniformizer to a uniformizer, so agreement to N terms carries
    through each step.  The cost is |S| cold power tables, one per sigma_g,
    and |S| (|G| + 1) substitutions through them."""
    m = lt.m_max
    ring = lt.unit_ring(m)
    t_img = lt.t_image()
    generators = [g for g, _order in
                  unit_group((ring.residue.p, ring.residue.f), m).generators]
    for g in generators:
        sig_g = lt.torsion_automorphism(g)
        _check_fixes_base(g, sig_g, t_img)
        for b in ring.units():
            composed = apply_automorphism(sig_g, lt.torsion_automorphism(b).image_of_uniformizer)
            direct = lt.torsion_automorphism(g * b).image_of_uniformizer
            if not composed.agrees(direct, min_terms=CHARACTER_FIXED_TERMS):
                raise CharacterViolation(
                    "composition law fails at (%r, %r): %r vs %r"
                    % (g, b, composed - direct, direct))
    return generators


def character_restriction_consistent(lt: LubinTateTower) -> bool:
    """Restricting the top-level substitutions to the next generator down
    realizes the lower table through reduction mod t^(m-1):
    sigma_a(lam_(m-1)) = [a mod t^(m-1)](lam_(m-1)) for every unit a.

    It is checked for the generators S of the tower's composition law
    (which raises CharacterViolation if the law fails), to RESTRICTION_TERMS
    terms, and follows for every unit.  If it holds for b and g is in S,
    write lam = lam_(m-1) and c -> [c] for the action mod t^(m-1):
    sigma_(gb)(lam) = sigma_g([b](lam)) = [b](sigma_g(lam)) = [b]([g](lam))
    = [gb](lam).  The second step holds because [b] has coefficients in
    F_Q[t], F_Q the base residue field, and sigma_g fixes t and F_Q."""
    m = lt.m_max
    if m < 2:
        return True
    lower = lt.iterates(m - 1)          # lam_(m-1) and its [t]-iterates
    for g in lt.composition_law():
        moved = apply_automorphism(lt.torsion_automorphism(g), lower[0])
        if not moved.agrees(act(g.reduce_to(m - 1), lower), min_terms=RESTRICTION_TERMS):
            return False
    return True


# --- valuation and product identities ------------------------------------------


def expected_primitive_valuation(q, n, m):
    return Fraction(1, (q ** n - 1) * q ** (n * (m - 1)))


def verify_torsion_valuations(Tm: TorsionModule):
    """Every exact-level-k torsion point of the orbit model has valuation
    1/((q^n - 1) q^(n(k-1))), as an exact rational; v(t) = 1."""
    m = Tm.level
    q = Tm.module.q
    n = Tm.module.n
    checked = {k: 0 for k in range(1, m + 1)}
    for key, vec in Tm.coords.items():
        level = m - min(v.level() for v in vec) if vec else 0
        pt = Tm.points[key]
        if level == 0:
            if not pt.is_zero_mod_precision():
                raise ValuationMismatch("coordinate 0 gave a nonzero point")
            continue
        expected = expected_primitive_valuation(q, n, level)
        got = pt.valuation()
        if got != expected:
            raise ValuationMismatch(
                "level-%d point %r has valuation %s, expected %s"
                % (level, key, got, expected))
        checked[level] += 1
    counts = {k: q ** (n * k) - q ** (n * (k - 1)) for k in checked}
    if checked != counts:
        raise ValuationMismatch("level population %r, expected %r" % (checked, counts))
    return {"points_checked": sum(checked.values()), "per_level": checked,
            "primitive_valuation": expected_primitive_valuation(q, n, m)}


def orbit_representatives(ring: OModRing, n: int):
    """Representatives of the unit-group orbits on primitive coordinate
    vectors, orbits checked to be free; deterministic (lexicographically
    smallest member represents)."""
    units = list(ring.units())
    primitive = [v for v in itertools.product(ring.elements(), repeat=n)
                 if min(x.level() for x in v) == 0]
    seen = set()
    reps = []
    for v in sorted(primitive, key=coord_key):
        k = coord_key(v)
        if k in seen:
            continue
        orbit = {coord_key(tuple(u * x for x in v)) for u in units}
        if len(orbit) != len(units):
            raise OrbitNotFree("orbit of %r has size %d != %d (stabilizer"
                               " nontrivial)" % (k, len(orbit), len(units)))
        reps.append(v)
        seen |= orbit
    return reps


def verify_product_formula(lt: LubinTateTower):
    """On the top-level torsion table of the tower lt: |R| = (q^n-1)
    q^(n(m-1)) / ((q-1) q^(m-1)); the valuations of a bijective level
    structure over R sum to 1/((q-1) q^(m-1)) = v(uniformizer of the level-m
    base torsion field); and the actual product differs from that embedded
    uniformizer by a unit."""
    Tm = lt.torsion()
    m = Tm.level
    q, n = Tm.module.q, Tm.module.n
    reps = orbit_representatives(Tm.ring, n)
    expected_count = Fraction((q ** n - 1) * q ** (n * (m - 1)),
                              (q - 1) * q ** (m - 1))
    if Fraction(len(reps)) != expected_count:
        raise ValuationMismatch("|R| = %d, expected %s" % (len(reps), expected_count))
    phi = bijective_level_structure(Tm)
    total = Fraction(0)
    prod = Tm.field.one()
    for vec in reps:
        pt = phi.image_of(vec)
        total += pt.valuation()
        prod = prod * pt
    expected_sum = Fraction(1, (q - 1) * q ** (m - 1))
    if total != expected_sum:
        raise ValuationMismatch("sum of valuations %s, expected %s"
                                % (total, expected_sum))
    # compare the actual product against the embedded uniformizer of the
    # level-m torsion field of the height-one base model
    varpi_m = lt.base_chain()[-1]
    ratio_val = prod.valuation() - varpi_m.valuation()
    if ratio_val != 0:
        raise ValuationMismatch("product/uniformizer has valuation %s, expected 0"
                                % (ratio_val,))
    return {"rep_count": len(reps), "valuation_sum": total,
            "uniformizer_valuation": varpi_m.valuation(),
            "ratio_valuation": ratio_val}


def locate_base_torsion_chain(field, m):
    """mu_1, ..., mu_m inside the given field: [t](mu_1) = 0, mu_1 != 0, and
    [t](mu_k) = mu_{k-1}, [t](T) = t*T + T^q the height-one model over the
    root field; mu_k generates the level-k torsion of that model.
    Deterministic root choice (smallest key of series_keys)."""
    P = lubin_tate_module(field.root, 1).embedded_t_action(field)
    out = []
    prev = field.zero()
    for k in range(1, m + 1):
        roots = additive_roots_in_field(P, prev if k > 1 else None)
        if k == 1:
            roots = [r for r in roots if r.is_known_nonzero()]
        if not roots:
            raise ValuationMismatch("no level-%d torsion of the base model found" % k)
        prev = min(zip(series_keys(roots), roots), key=lambda kr: kr[0])[1]
        out.append(prev)
    return out


# --- the determinant / norm compatibility ---------------------------------------


@dataclass(eq=False)
class DeterminantWitness:
    rows: list = dc_field(default_factory=list)  # (a, N(a), matched c)


def verify_determinant_character(lt: LubinTateTower) -> DeterminantWitness:
    """At the multiplication-rich height-n point, given its tower lt (as built
    by cm_tower): every torsion substitution sigma_a (a a unit of o'/t^m)
    moves the embedded height-one torsion generator mu by exactly [N(a)], N
    the coefficient-Frobenius norm o'/t^m -> o/t^m.  The rows are
    (a, N(a), c) with sigma_a(mu) = [c](mu).

    For each g in the generators S of the tower's composition law (run on
    lt unless verify_character recorded it), c is decoded: sigma_g(mu) is
    compared with [c](mu) for every base unit c, to DETERMINANT_MATCH_TERMS
    terms, and the match must be N(g).  N(gb) = N(g) N(b) is checked for
    every g in S and every unit b.  Then sigma_a(mu) = [N(a)](mu) for every
    unit a, so its row is (a, N(a), N(a)): it holds for a = 1, and if it
    holds for b, then sigma_(gb)(mu) = sigma_g([N(b)](mu))
    = [N(b)](sigma_g(mu)) = [N(b)]([N(g)](mu)) = [N(gb)](mu).  The second
    step holds because [N(b)] has coefficients in F_q[t], which sigma_g
    fixes."""
    m = lt.m_max
    root_res = lt.base.root.residue
    mu = lt.base_chain()[-1]
    # primitivity: [t^(m-1)](mu) = mu_1 != 0, [t^m](mu) = 0; the iterates
    # [t]^j(mu), j < m, give the decode table c -> [c](mu)
    iterates = t_iterates(lubin_tate_module(lt.base.root, 1), mu, m + 1)
    if not iterates.pop().is_zero_mod_precision():
        raise DeterminantMismatch("mu is not t^m-torsion")
    base_units = list(OModRing(root_res, m).units())
    decode = {c: act(c, iterates) for c in base_units}
    generators = lt.composition_law()
    units = list(OModRing(lt.base.residue, m).units())
    norms = {a: a.norm_to(root_res) for a in units}
    for g in generators:
        moved = apply_automorphism(lt.torsion_automorphism(g), mu)
        matched = next((c for c in base_units
                        if moved.agrees(decode[c], min_terms=DETERMINANT_MATCH_TERMS)), None)
        if matched is None:
            raise DeterminantMismatch("sigma_a(mu) is not [c](mu) for any unit c; a = %r" % (g,))
        if matched != norms[g]:
            raise DeterminantMismatch(
                "sigma_%r moves mu by [%r], but N(a) = %r" % (g, matched, norms[g]))
    for g in generators:
        for b in units:
            if norms[g * b] != norms[g] * norms[b]:
                raise DeterminantMismatch("N(%r) = %r, but N(%r) N(%r) = %r"
                                          % (g * b, norms[g * b], g, b, norms[g] * norms[b]))
    if len(set(norms.values())) != len(base_units):
        # the norm is onto the base units, so the rows' c must cover them
        raise DeterminantMismatch("decoded torsion characters do not cover the unit group")
    return DeterminantWitness([(a, norms[a], norms[a]) for a in units])
