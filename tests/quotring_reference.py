"""Boxed reference arithmetic for o/t^m: every operation on tuples of
FqElement coefficients, the way OModElement computed before it held one
integer code.
The Leibniz determinant and the brute-force level count are the oracles for
unit-pivot elimination and the rank test mod t.  The endomorphism-order
product with its t-power wraps, the reduced norm computed one t-adic digit
higher, and the samplers that build every drawn matrix or coefficient are the
oracles for pi0's code-level order arithmetic and its samplers; with the
matrix product on coefficient tuples they make reference_pi0_action_table,
the oracle for pi0_action_table's sampled loops on codes.  Element orders by
repeated multiplication and the generator search that spans every trial
tuple from scratch are the oracle for unit_group's exact-order test and
incremental spans; the p-partition read from the counts |G[p^k]| backs the
enumerated invariant factors that check unit_group's closed form.
Projection from a field to a subfield by a preimage table backs
ref_descend_to, and the search over every h-subset of a kernel is the oracle
for kernel_rank's residue span."""

from functools import lru_cache
import itertools
import math

from omod.errors import MixedFields, NotASummand
from omod.finitefield import GF, FieldSpec, FqElement, embed_fq
from omod.formalmod import coord_key
from omod.pi0 import DivisionOrder, gl_generators, unit_group
from omod.quotring import OModElement, OModRing


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(a, b):
    m = len(a)
    out = [a[0].spec.zero()] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b[: m - i]):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def ref_one(residue, m):
    return (residue.one(),) + (residue.zero(),) * (m - 1)


def ref_inv(a):
    b0 = a[0].inv()
    out = [b0]
    for k in range(1, len(a)):
        acc = a[0].spec.zero()
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
        out.append(-(b0 * acc))
    return tuple(out)


def ref_pow(a, e):
    if e < 0:
        a, e = ref_inv(a), -e
    out = ref_one(a[0].spec, len(a))
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def ref_frobenius(a, j):
    return tuple(c.frobenius(j) for c in a)


@lru_cache(maxsize=None)
def _subfield_preimage_table(src: FieldSpec, dst: FieldSpec):
    return {embed_fq(a, dst): a for a in src.elements()}


def project_fq(a: FqElement, src: FieldSpec) -> FqElement:
    """Inverse of embed_fq on its image; raises if a is not in the subfield."""
    if a.spec == src:
        return a
    table = _subfield_preimage_table(src, a.spec)
    try:
        return table[a]
    except KeyError:
        raise MixedFields("%r does not lie in the subfield %r" % (a, src))


def ref_descend_to(a, sub):
    return tuple(project_fq(c, sub) for c in a)


def ref_norm_to(a, sub):
    acc = ref_one(a[0].spec, len(a))
    for j in range(a[0].spec.f // sub.f):
        acc = ref_mul(acc, ref_frobenius(a, sub.f * j))
    return ref_descend_to(acc, sub)


def ref_reduce_to(a, m):
    return a[:m] + (a[0].spec.zero(),) * (m - len(a[:m]))


def t_power(ring, w):
    """t^w in `ring`, built from its coefficients (zero once w >= m)."""
    residue = ring.residue
    return ring.element([residue.zero()] * w + [residue.one()])


def leibniz_determinant(matrix):
    """sum over permutations of sign * prod_i g[i][perm(i)], on coefficient
    tuples."""
    n = len(matrix)
    residue, m = matrix[0][0][0].spec, len(matrix[0][0])
    total = (residue.zero(),) * m
    for perm in itertools.permutations(range(n)):
        term = ref_one(residue, m)
        for i in range(n):
            term = ref_mul(term, matrix[i][perm[i]])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = ref_sub(total, term) if inversions % 2 else ref_add(total, term)
    return total


def brute_force_level_count(Tm):
    """Candidates are all tuples of n basis images; one counts when its
    induced map hits every torsion point exactly once."""
    n, size, ring = Tm.rank, len(Tm.points), Tm.ring
    coord_vecs = [Tm.coords[k] for k in sorted(Tm.points)]

    def induced_images(images_coords):
        seen = set()
        for vec in coord_vecs:
            acc = [ring.zero()] * n
            for j, v in enumerate(vec):
                for i in range(n):
                    acc[i] = acc[i] + images_coords[j][i] * v
            seen.add(coord_key(tuple(acc)))
        return seen

    return sum(1 for images in itertools.product(coord_vecs, repeat=n)
               if len(induced_images(images)) == size)


def reference_kernel_rank(phi, reduction="closed"):
    """kernel_rank with the kernel generators found by reference_summand_generators."""
    Tm = phi.torsion
    ring = Tm.ring
    n = Tm.rank
    kernel = []
    for key, vec in sorted(Tm.coords.items()):
        pt = phi.image_of(vec)
        if reduction == "closed":
            dies = pt.order_lower_bound() > 0
        else:
            dies = pt.is_zero_mod_precision()
        if dies:
            kernel.append(vec)
    size = len(kernel)
    q = ring.residue.q
    m = ring.m
    h = 0
    while q ** (m * h) < size:
        h += 1
    if q ** (m * h) != size:
        raise NotASummand("kernel has %d elements, not a power q^(mh)" % size)
    if h == 0:
        return 0
    gens = reference_summand_generators(kernel, ring, n, h)
    if gens is None:
        raise NotASummand("kernel admits no generating set of %d unit rows" % h)
    return h


def reference_summand_generators(kernel, ring, n, h):
    """Greedy: pick kernel vectors with a unit in a fresh coordinate (after
    reduction by already-chosen ones); such a set generates a free summand."""
    kernel_keys = {coord_key(v) for v in kernel}
    for combo in itertools.combinations(kernel, h):
        # unit-pivot test: the h x n matrix has h columns with unit pivots in
        # distinct positions
        pivots = []
        used = set()
        ok = True
        rows = [list(v) for v in combo]
        for r in rows:
            pos = next((j for j, x in enumerate(r) if x.is_unit() and j not in used), None)
            if pos is None:
                ok = False
                break
            used.add(pos)
            pivots.append(pos)
        if not ok:
            continue
        # span check: all o/t^m-combinations of combo stay inside the kernel set
        span = set()
        good = True
        for coeffs in itertools.product(ring.elements(), repeat=h):
            acc = [ring.zero()] * n
            for c, vec in zip(coeffs, combo):
                for i in range(n):
                    acc[i] = acc[i] + c * vec[i]
            k = coord_key(tuple(acc))
            span.add(k)
            if k not in kernel_keys:
                good = False
                break
        if good and len(span) == len(kernel):
            return list(combo)
    return None


def reference_order_mul(order, b, c):
    """b * c in the order: Pi^i a Pi^j a' = a Frob^i(a') Pi^(i+j), each
    Pi^n turned into a product by t^wrap."""
    out = [order.big.zero()] * order.n
    for i, bi in enumerate(b):
        for j, cj in enumerate(c):
            k = i + j
            coeff = bi * cj.frobenius(order.base_residue.f * i)
            wrap = k // order.n
            if wrap:
                coeff = coeff * t_power(order.big, wrap)
            out[k % order.n] = out[k % order.n] + coeff
    return tuple(out)


def reference_reduced_norm(order, b):
    """Nrd(b) as coefficients over o/t^m: the Leibniz determinant of right
    multiplication by b on {Pi^j}, over o'/t^(m+1), reduced mod t^m."""
    n, m = order.n, order.big.m
    big_hi = OModRing(order.big.residue, m + 1)
    lift = [big_hi.element(a.coeffs) for a in b]
    cols = []
    for j in range(n):
        col = [big_hi.zero()] * n
        for i, a in enumerate(lift):
            k = i + j
            entry = a.frobenius(order.base_residue.f * j)
            if k >= n:
                entry = entry * t_power(big_hi, k // n)
            col[k % n] = col[k % n] + entry
        cols.append(col)
    det = ref_reduce_to(leibniz_determinant([[cols[j][i].coeffs for j in range(n)]
                                             for i in range(n)]), m)
    assert ref_frobenius(det, order.base_residue.f) == det
    return ref_descend_to(det, order.base_residue)


def reference_gl_sample(ring, n, rng):
    """Uniform matrices, each built, until the Leibniz determinant is a unit."""
    while True:
        g = tuple(tuple(OModElement(ring, rng.randrange(ring.size)) for _ in range(n))
                  for _ in range(n))
        if not leibniz_determinant([[x.coeffs for x in row] for row in g])[0].is_zero():
            return g


def reference_unit_sample(order, rng):
    """Uniform coefficient tuples, each built, until the first is a unit."""
    while True:
        b = tuple(OModElement(order.big, rng.randrange(order.big.size))
                  for _ in range(order.n))
        if b[0].is_unit():
            return b


def reference_matrix_mul(a, b):
    """Product of two square matrices of coefficient tuples."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ref_mul(a[i][0], b[0][j])
            for k in range(1, n):
                acc = ref_add(acc, ref_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def reference_pi0_action_table(p, f, n, m, rng, pair_samples):
    """pi0_action_table's checks and report from boxed samples: every drawn
    matrix and order element is built, determinants are Leibniz sums, norms
    reference_reduced_norm, and the action multiplies by one factor at a
    time."""
    group = unit_group((p, f), m)
    ring = group.ring
    order = DivisionOrder(n, OModRing(GF(p, f * n), m), ring.residue)
    one = ref_one(ring.residue, m)

    def boxed(g):
        return tuple(tuple(x.coeffs for x in row) for row in g)

    def det_is_multiplicative(a, b):
        return leibniz_determinant(reference_matrix_mul(a, b)) == \
            ref_mul(leibniz_determinant(a), leibniz_determinant(b))

    def act(c, g, b, tau):
        out = ref_mul(leibniz_determinant(g), c)
        out = ref_mul(ref_inv(reference_reduced_norm(order, b)), out)
        return ref_mul(ref_inv(tau), out)

    gl = [boxed(g) for g in gl_generators(ring, n, [g for g, _ in group.generators])]
    report = {"det_pairs": 0, "nrd_pairs": 0, "action_triples": 0}
    for a in gl:
        for b in gl:
            assert det_is_multiplicative(a, b)
            report["det_pairs"] += 1
    for _ in range(pair_samples):
        a = boxed(reference_gl_sample(ring, n, rng))
        assert det_is_multiplicative(a, boxed(reference_gl_sample(ring, n, rng)))
        report["det_pairs"] += 1
    for _ in range(pair_samples):
        b = reference_unit_sample(order, rng)
        c = reference_unit_sample(order, rng)
        assert reference_reduced_norm(order, reference_order_mul(order, b, c)) == \
            ref_mul(reference_reduced_norm(order, b), reference_reduced_norm(order, c))
        report["nrd_pairs"] += 1
    norms = []
    for a in order.big.units():
        norms.append(reference_reduced_norm(order, order.scalar(a)))
        assert norms[-1] == ref_norm_to(a.coeffs, ring.residue)
    assert set(norms) == {u.coeffs for u in group.elements}
    report["nrd_surjective"] = True
    assert all(leibniz_determinant(g) == one for g in gl[: n * (n - 1)])
    report["norm_one_scalars"] = norms.count(one)
    assert report["norm_one_scalars"] == \
        ((p ** (f * n) - 1) // (p ** f - 1)) * (p ** (f * (n - 1))) ** (m - 1)
    for _ in range(min(pair_samples, 50)):
        g1 = boxed(reference_gl_sample(ring, n, rng))
        g2 = boxed(reference_gl_sample(ring, n, rng))
        b1 = reference_unit_sample(order, rng)
        b2 = reference_unit_sample(order, rng)
        t1, t2, c = (group.elements[rng.randrange(group.order)].coeffs for _ in range(3))
        assert act(act(c, g2, b2, t2), g1, b1, t1) == \
            act(c, reference_matrix_mul(g1, g2), reference_order_mul(order, b1, b2),
                ref_mul(t1, t2))
        report["action_triples"] += 1
    return report


def reference_element_order(a):
    """The order of a unit: multiply it by itself until the product is 1."""
    one = a.ring.one()
    k, acc = 1, a
    while acc != one:
        acc = acc * a
        k += 1
    return k


def _partition_from_counts(counts, p):
    """counts[k-1] = p^(sum_i min(lambda_i, k)) recovers the partition lambda
    (largest first)."""
    exps = [0]
    for c in counts:
        e = 0
        while p ** e < c:
            e += 1
        exps.append(e)
    # exps[k] - exps[k-1] = #{i : lambda_i >= k}
    ge = [exps[k] - exps[k - 1] for k in range(1, len(exps))]
    lam = []
    for i in range(ge[0] if ge else 0):
        lam.append(sum(1 for g in ge if g > i))
    return sorted(lam, reverse=True)


def reference_generator_basis(elements, ring, factors, orders):
    """Explicit generators matching the invariant factors: each trial
    generator tuple is spanned from scratch, over every exponent tuple, and
    kept when the span has prod(orders) elements; the final span must hit
    every unit exactly once."""
    by_order = {}
    for a, o in zip(elements, orders):
        by_order.setdefault(o, []).append(a)

    def span(gens):
        table = {}
        ranges = [range(d) for _, d in gens]
        for exps in itertools.product(*ranges):
            acc = ring.one()
            for (g, _), e in zip(gens, exps):
                for _ in range(e):
                    acc = acc * g
            table.setdefault(acc.codes, exps)
        return table

    def extend_inner(idx, gens):
        if idx == len(factors):
            table = span(gens)
            if len(table) == len(elements):
                return gens, table
            return None
        d = factors[idx]
        for cand in by_order.get(d, []):
            trial = gens + [(cand, d)]
            table = span(trial)
            if len(table) == math.prod(x for _, x in trial):
                deeper = extend_inner(idx + 1, trial)
                if deeper is not None:
                    return deeper
        return None

    found = extend_inner(0, [])
    if found is None:
        raise ArithmeticError("no generator basis found for factors %r" % (factors,))
    gens, table = found
    return gens, table
