"""Tower cache: one JSON document per torsion tower, keyed by
(p, f, q, n, m, precision).  Writes are atomic (temp file + rename); loads
rebuild the field chain from each level's stored image of the base
uniformizer and re-verify the recursion residual before handing the tower out.
"""

from __future__ import annotations

import json
import os
import tempfile

from .errors import NoConvergence, OmodError, SchemaMismatch
from .formalmod import lubin_tate_module
from .lubintate import LubinTateTower
from .series import base_field
from .tower import FieldTower, ramified_extension, root_uniformizer_image, \
    unramified_extension

CACHE_SCHEMA = "omod-tower-cache/1"


def tower_cache_name(p, f, n, m, precision):
    q = p ** f
    return "tower_p%d_f%d_q%d_n%d_m%d_prec%d.json" % (p, f, q, n, m, precision)


def tower_to_document(lt: LubinTateTower, p, f, n) -> dict:
    levels = []
    for k, (spec, lam) in enumerate(lt.levels, start=1):
        if spec not in lt.tower.levels:
            levels.append({"degree_one": True})
            continue
        emb = spec.embedding
        levels.append({
            "degree_one": False,
            "ramification_index": spec.ramification_index,
            "uniformizer": spec.uniformizer,
            "base_uniformizer_series": emb.image_of_base_uniformizer.to_json(),
        })
    return {
        "schema": CACHE_SCHEMA,
        "key": {"p": p, "f": f, "q": p ** f, "n": n, "m": lt.m_max,
                "precision": lt.precision},
        "levels": levels,
    }


def tower_from_document(doc) -> LubinTateTower:
    if doc.get("schema") != CACHE_SCHEMA:
        raise SchemaMismatch("unknown cache schema %r" % (doc.get("schema"),))
    key = doc["key"]
    p, f, n, m, precision = key["p"], key["f"], key["n"], key["m"], key["precision"]
    F = base_field(p, f, precision=precision)
    base = unramified_extension(F, n) if n > 1 else F
    module = lubin_tate_module(base, n)
    tower = FieldTower(base)
    levels = []
    for rec in doc["levels"]:
        if rec["degree_one"]:
            levels.append((tower.top, root_uniformizer_image(tower.top)))
            continue
        spec, _ = ramified_extension(
            tower.top, rec["ramification_index"],
            lambda fld, s=rec["base_uniformizer_series"]: fld.element(
                s["leading_exponent"], [fld.residue.element(c) for c in s["coeffs"]],
                s["precision"]),
            precision=precision, uniformizer=rec["uniformizer"])
        tower.push(spec)
        levels.append((spec, spec.uniformizer_elt()))
    lt = LubinTateTower(base, module, tower, levels, m, precision)
    _verify_rebuilt(lt)
    return lt


def _verify_rebuilt(lt: LubinTateTower):
    """The stored series must still satisfy [t](lam_k) = lam_{k-1} to the
    tower's full precision: a fresh tower does at every level, so any shortfall
    means the file was changed."""
    P = lt.module.embedded_t_action(lt.top)
    for k in range(1, lt.m_max + 1):
        prev = lt.lam(k - 1) if k > 1 else lt.top.zero()
        bound = (P(lt.lam(k)) - prev).order_lower_bound()
        if bound < lt.precision:
            raise NoConvergence(
                "cached tower fails the torsion recursion at level %d "
                "(residual order %r)" % (k, bound))


def save_tower(cache_dir, lt: LubinTateTower, p, f, n):
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, tower_cache_name(p, f, n, lt.m_max, lt.precision))
    doc = tower_to_document(lt, p, f, n)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # json.dumps runs the C encoder, which json.dump to a file does not
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_tower(cache_dir, p, f, n, m, precision):
    """The cached tower for this key, or None when there is no file.  Raises
    SchemaMismatch for a file that is not valid JSON, lacks a field, holds a
    field of the wrong type or value, or holds another key, and NoConvergence
    for one that fails the torsion recursion."""
    path = os.path.join(cache_dir, tower_cache_name(p, f, n, m, precision))
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise SchemaMismatch("unreadable cache file: %s" % exc) from None
    key = {"p": p, "f": f, "q": p ** f, "n": n, "m": m, "precision": precision}
    if not isinstance(doc, dict) or doc.get("key") != key:
        raise SchemaMismatch("cache file does not hold the tower %r" % (key,))
    try:
        return tower_from_document(doc)
    except KeyError as exc:
        raise SchemaMismatch("cache file lacks the field %s" % exc) from None
    except OmodError:
        raise
    except (IndexError, TypeError, ValueError) as exc:
        raise SchemaMismatch("cache file has a malformed field: %s" % exc) from None
