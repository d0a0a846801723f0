"""Tower cache: a loaded tower is checked against the torsion recursion to its
full precision, and a malformed file raises an OmodError instead of loading."""

import json

import pytest

from omod.cache import load_tower, save_tower
from omod.errors import OmodError, SchemaMismatch
from omod.lubintate import cm_tower

P, F, M, PREC = 3, 1, 2, 64


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("towers"))
    path = save_tower(cache_dir, cm_tower(P, F, 1, M, PREC), P, F, 1)
    with open(path) as fh:
        return cache_dir, path, json.load(fh)


def write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_tampered_top_coefficient_rejected(saved):
    cache_dir, path, clean = saved
    assert load_tower(cache_dir, P, F, 1, M, PREC) is not None
    lead = clean["levels"][-1]["base_uniformizer_series"]["leading_exponent"]
    for exponent in range(PREC // 2, PREC):
        doc = json.loads(json.dumps(clean))
        coeffs = doc["levels"][-1]["base_uniformizer_series"]["coeffs"]
        while len(coeffs) <= exponent - lead:       # trailing zeros are not stored
            coeffs.append([0] * F)
        coeffs[exponent - lead][0] = (coeffs[exponent - lead][0] + 1) % P
        write(path, doc)
        with pytest.raises(OmodError):
            load_tower(cache_dir, P, F, 1, M, PREC)
    write(path, clean)


def test_malformed_files_raise_schema_mismatch(saved):
    cache_dir, path, clean = saved
    with open(path, "w") as fh:
        fh.write(json.dumps(clean)[:100])
    with pytest.raises(SchemaMismatch):
        load_tower(cache_dir, P, F, 1, M, PREC)
    write(path, dict(clean, key=dict(clean["key"], m=M + 1)))
    with pytest.raises(SchemaMismatch):
        load_tower(cache_dir, P, F, 1, M, PREC)
    write(path, {k: v for k, v in clean.items() if k != "levels"})
    with pytest.raises(SchemaMismatch):
        load_tower(cache_dir, P, F, 1, M, PREC)
    write(path, clean)
    assert load_tower(cache_dir, P, F, 1, M, PREC) is not None
