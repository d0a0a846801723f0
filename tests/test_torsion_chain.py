"""The torsion chain solved by Newton steps in each level's own field: the
same levels as linear fixed-point iteration, the same cache bytes, quadratic
convergence with no substitution, images right on every term they claim; and
the tables a tower forms once and shares."""

import hashlib

import pytest

from omod.cache import save_tower
from omod.cli import main
from omod.errors import NoConvergence, OmodError
from omod.lubintate import cm_tower
from omod.series import LocalFieldElement, _PowerTable

from formalmod_reference import linear_chain_images


def newton_chain_images(lt):
    """linear_chain_images' view of a built tower."""
    out = []
    for spec, _lam in lt.levels:
        if spec not in lt.tower.levels:
            out.append(None)
            continue
        img = spec.embedding.image_of_base_uniformizer
        out.append((img.leading_exponent, img.codes, img.precision))
    return out


def outcome(build):
    try:
        return build()
    except OmodError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("prec", [64, 128])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_newton_levels_equal_linear_iteration(p, f, n, prec):
    # m = 3 covers m = 1, 2 too: each level is solved over the one below.
    # Where Q = q^n exceeds the precision, both raise the same error
    assert outcome(lambda: newton_chain_images(cm_tower(p, f, n, 3, prec))) == \
        outcome(lambda: linear_chain_images(p, f, n, 3, prec))


def doubling_count(lo, hi):
    """Newton steps that take a window of lo terms to hi, doubling each time."""
    steps = 0
    while lo < hi:
        lo, steps = min(2 * lo, hi), steps + 1
    return steps


@pytest.mark.parametrize("p,f,n,m,prec", [(2, 1, 1, 4, 512), (3, 1, 2, 3, 200)])
def test_levels_build_by_newton_without_substitution(monkeypatch, p, f, n, m, prec):
    # one inverse per Newton step and no substitution at any level k >= 2:
    # level k's t starts known to v + 1 terms, v = (Q-1)Q^(k-1), and each
    # step doubles the window up to P - 1
    calls = {"substitute": 0, "inv": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    # every substitution forms its sum in the image's power table, however
    # the caller imported substitute
    monkeypatch.setattr(_PowerTable, "combine", counting("substitute", _PowerTable.combine))
    monkeypatch.setattr(LocalFieldElement, "inv", counting("inv", LocalFieldElement.inv))
    cm_tower(p, f, n, 1, prec)
    level_one = dict(calls)
    cm_tower(p, f, n, m, prec)
    Q = (p ** f) ** n
    steps = sum(doubling_count((Q - 1) * Q ** (k - 1) + 1, prec - 1) for k in range(2, m + 1))
    assert level_one["inv"] == 0
    assert calls == {"substitute": 2 * level_one["substitute"], "inv": steps}


PRECISION_CASES = [(2, 1, 1, 5, 100), (2, 1, 1, 4, 77), (3, 1, 1, 3, 61),
                   (2, 2, 1, 3, 90), (2, 1, 2, 3, 70), (5, 1, 1, 2, 45)]


def level_images(lt):
    return [spec.embedding.image_of_base_uniformizer
            for spec, _lam in lt.levels if spec in lt.tower.levels]


def assert_images_within_claims(images, reference, prec):
    # every image is exact (level 1) or claims the full window u^prec, and
    # is right on all of it
    assert len(images) == len(reference)
    for img, ref in zip(images, reference):
        assert img.precision in (None, prec)
        if img.precision is not None:
            ref = ref.truncate(img.precision)
        assert (img.leading_exponent, img.codes, img.precision) == \
            (ref.leading_exponent, ref.codes, ref.precision)


@pytest.mark.parametrize("p,f,n,m,prec", PRECISION_CASES + [
    # every precision from Q + 1 up: at P - 1 <= v + 1 the starting iterate
    # -u^v, right modulo u^(v+1) only, is the level's whole answer
    (p, f, 1, m, prec) for p, f, m in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]
    for prec in range(p ** f + 1, 24)])
def test_level_images_agree_with_twice_the_precision(p, f, n, m, prec):
    config = (p, f, n, m)
    images = level_images(cm_tower(*config, prec))
    assert_images_within_claims(images, level_images(cm_tower(*config, 2 * prec)), prec)


@pytest.mark.parametrize("p,f,n,m,prec", PRECISION_CASES)
def test_an_inverse_claiming_one_term_too_many_fails_the_certificate(monkeypatch, p, f, n, m,
                                                                      prec):
    # with the last claimed term of every Newton divisor's inverse wrong, a
    # step's correction is wrong one term short of the doubled window: the
    # residual certificate must refuse the level, or (where the solve had
    # already converged) the images must still be right on their claims
    config = (p, f, n, m)
    reference = level_images(cm_tower(*config, 2 * prec))
    inv = LocalFieldElement.inv

    def one_term_wrong(self, precision=None):
        out = inv(self, precision)
        if out.precision is None or out.precision < 1:
            return out
        return out + out.field.uniformizer_elt(out.precision - 1)

    monkeypatch.setattr(LocalFieldElement, "inv", one_term_wrong)
    try:
        images = level_images(cm_tower(*config, prec))
    except NoConvergence:
        return
    assert_images_within_claims(images, reference, prec)


# sha256 of save_tower files written by the linear iteration
SAVED_TOWERS = {
    (2, 1, 1, 3, 64): "71042ef84139cf6be3322c53760a48d04e897d968b6f1d9e208ff30a920a5985",
    (3, 1, 1, 3, 64): "d2d1cd31f43d9368dfc13b184f985ce594bd474f93bc72a49abdabc0ebbd5a0e",
    (2, 2, 1, 3, 64): "957992bc53fea0fb0e84da53548a23261ac97af6a536d4317e83e6bbb1162c29",
    (2, 1, 1, 8, 512): "e0af98bcc722f0ab002c198b8e723dd1e11b688b9dae62b95082feb580f0eb8f",
}


@pytest.mark.parametrize("key", sorted(SAVED_TOWERS))
def test_saved_tower_bytes_unchanged(tmp_path, key):
    p, f, n = key[:3]
    path = save_tower(str(tmp_path), cm_tower(*key), p, f, n)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SAVED_TOWERS[key]


# sha256 of `omod tower --output json` at the same keys: the fingerprint that
# stays when the tower cache and its save_tower files go
TOWER_JSON = {
    (2, 1, 1, 3, 64): "e990cd39dd1d321d86dc84c727b4d02fa7ce030f39f36040e21708898f8a9d38",
    (3, 1, 1, 3, 64): "f102365ba60ef33cd918aef904eb6a2886546f2ae174172620e68b9b323c0505",
    (2, 2, 1, 3, 64): "37621e91bdb923cd9984bfab75fbdb7673d34616474529cb56845d9f5d988cec",
    (2, 1, 1, 8, 512): "986bb994937d2142d8d1c700521b9d769532e3a0dc62b259d02af44f92c51c41",
}


@pytest.mark.parametrize("key", sorted(SAVED_TOWERS))
def test_tower_json_bytes_at_the_saved_tower_keys(capsys, key):
    p, f, n, m, prec = key
    argv = ["tower", "--q", str(p ** f), "--n", str(n), "--m", str(m), "--prec", str(prec),
            "--output", "json"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == TOWER_JSON[key]


def test_tower_tables_are_formed_once():
    lt = cm_tower(2, 1, 2, 2, 64)
    module, top = lt.module, lt.top
    assert module.embedded_t_action(top) is module.embedded_t_action(top)
    assert module.embedded_t_action(module.field) is module.t_action
    assert lt.torsion(2) is lt.torsion() and lt.torsion(1) is lt.torsion(1)
    assert lt.torsion(1) is not lt.torsion(2)
