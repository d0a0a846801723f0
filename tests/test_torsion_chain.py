"""The torsion chain solved by Newton steps: the same levels as linear
fixed-point iteration, the same cache bytes, and quadratic convergence; and
the tables a tower forms once and shares."""

import hashlib

import pytest

from omod import formalmod
from omod.cache import save_tower
from omod.errors import OmodError
from omod.lubintate import cm_tower

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


def test_each_level_converges_in_one_newton_call(monkeypatch):
    # the relation solves the level on its first call, and one plain step
    # confirms it; linear iteration needs 511, 104 and 32 calls here
    calls = []
    build = formalmod.ramified_extension_by_relation

    def counting(base, e, relation, **kwargs):
        calls.append(0)

        def counted(*args):
            calls[-1] += 1
            return relation(*args)
        return build(base, e, counted, **kwargs)

    monkeypatch.setattr(formalmod, "ramified_extension_by_relation", counting)
    cm_tower(2, 1, 1, 4, 512)
    assert calls == [2, 2, 2]


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


def test_tower_tables_are_formed_once():
    lt = cm_tower(2, 1, 2, 2, 64)
    module, top = lt.module, lt.top
    assert module.embedded_t_action(top) is module.embedded_t_action(top)
    assert module.embedded_t_action(module.field) is module.t_action
    assert lt.torsion(2) is lt.torsion() and lt.torsion(1) is lt.torsion(1)
    assert lt.torsion(1) is not lt.torsion(2)
