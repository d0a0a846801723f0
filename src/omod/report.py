"""Machine-readable verification reports: canonical JSON, CSV flattening,
merging, and the coverage matrix.

Canonical JSON is deterministic byte-for-byte for a fixed run configuration
(sorted keys, fixed separators, no volatile fields); wall-clock timings appear
only in the human-readable text rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import SchemaMismatch

SCHEMA = "omod-verify-report/1"


@dataclass
class CheckResult:
    """One verified identity: what was checked, at which parameters, what came
    out, what was expected, and where the expected value comes from
    (closed-form | enumeration | construction | oracle)."""

    check: str
    claim: str
    parameters: dict
    computed: object
    expected: object
    status: str            # pass | fail | skipped
    source: str = "closed-form"
    witness: object = None
    elapsed: float | None = None   # text rendering only; never serialized

    def __post_init__(self):
        if self.status == "fail" and self.witness is None:
            self.witness = "unspecified failure"

    def to_json(self):
        doc = {
            "check": self.check,
            "claim": self.claim,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "computed": _jsonable(self.computed),
            "expected": _jsonable(self.expected),
            "status": self.status,
            "source": self.source,
        }
        if self.witness is not None:
            doc["witness"] = _jsonable(self.witness)
        return doc


def _param_key(params):
    return tuple(sorted((k, str(v)) for k, v in params.items()))


def _jsonable(v):
    from fractions import Fraction

    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in sorted(v.items(), key=lambda t: str(t[0]))}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def report_document(results, config: dict):
    return {
        "schema": SCHEMA,
        "config": {k: _jsonable(config[k]) for k in sorted(config)},
        "results": [r.to_json() for r in results],
        "failures": sum(1 for r in results if r.status == "fail"),
    }


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(results, config) -> str:
    lines = ["config: " + ", ".join("%s=%s" % (k, config[k]) for k in sorted(config))]
    width = max((len(r.check) for r in results), default=5)
    for r in results:
        elapsed = " (%.2fs)" % r.elapsed if r.elapsed is not None else ""
        lines.append("%-*s  %-4s  computed=%s expected=%s%s"
                     % (width, r.check, r.status.upper(),
                        _short(r.computed), _short(r.expected), elapsed))
        if r.status == "fail":
            lines.append("    witness: %s" % (r.witness,))
    fails = sum(1 for r in results if r.status == "fail")
    lines.append("%d checks, %d failed" % (len(results), fails))
    return "\n".join(lines) + "\n"


def _short(v):
    s = str(_jsonable(v))
    return s if len(s) <= 60 else s[:57] + "..."


def to_csv(results) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "claim", "parameters", "computed", "expected",
                     "status", "source", "witness"])
    for r in results:
        writer.writerow([
            r.check, r.claim,
            ";".join("%s=%s" % kv for kv in sorted(r.parameters.items())),
            json.dumps(_jsonable(r.computed), sort_keys=True),
            json.dumps(_jsonable(r.expected), sort_keys=True),
            r.status, r.source,
            "" if r.witness is None else str(r.witness),
        ])
    return buf.getvalue()


# --- merging ------------------------------------------------------------------------


RECORD_FIELDS = {"check", "claim", "parameters", "status", "computed"}


def _check_document(doc):
    """SchemaMismatch unless doc is a report object of this schema whose
    results are records: string check, claim and status, a parameters
    object, and a computed value."""
    if not isinstance(doc, dict):
        raise SchemaMismatch("report document is not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaMismatch("unknown schema %r" % (doc.get("schema"),))
    if not isinstance(doc.get("results"), list):
        raise SchemaMismatch("report document has no results list")
    for i, rec in enumerate(doc["results"]):
        if not (isinstance(rec, dict) and RECORD_FIELDS <= rec.keys()
                and isinstance(rec["parameters"], dict)
                and all(isinstance(rec[k], str) for k in ("check", "claim", "status"))):
            raise SchemaMismatch("result %d is not a record of %s"
                                 % (i, ", ".join(sorted(RECORD_FIELDS))))


def merge_documents(docs):
    """Union of result records; identical duplicates collapse, conflicting
    duplicates (same key, different status or computed value) are an error,
    and so is a document that is not a report (_check_document)."""
    merged = {}
    for doc in docs:
        _check_document(doc)
        for rec in doc["results"]:
            key = (rec["check"], rec["claim"], _param_key(rec["parameters"]))
            if key in merged:
                old = merged[key]
                if old["status"] != rec["status"] or old["computed"] != rec["computed"]:
                    raise SchemaMismatch(
                        "conflicting duplicate for %s at %s: %s vs %s"
                        % (rec["check"], rec["parameters"], old["status"], rec["status"]))
            else:
                merged[key] = rec
    out = [merged[k] for k in sorted(merged)]
    return {
        "schema": SCHEMA,
        "config": {"merged": True},
        "results": out,
        "failures": sum(1 for r in out if r["status"] == "fail"),
    }


def coverage_matrix(merged_doc) -> str:
    """claim x parameter-set x status, rendered as text."""
    cells = {}
    claims = []
    params = []
    for rec in merged_doc["results"]:
        claim = "%s: %s" % (rec["check"], rec["claim"])
        pkey = ",".join("%s=%s" % (k, v) for k, v in sorted(rec["parameters"].items()))
        if claim not in claims:
            claims.append(claim)
        if pkey not in params:
            params.append(pkey)
        cells[(claim, pkey)] = rec["status"]
    lines = ["coverage matrix (%d claims x %d parameter sets)"
             % (len(claims), len(params))]
    for claim in claims:
        lines.append(claim)
        for pkey in params:
            status = cells.get((claim, pkey))
            if status is not None:
                lines.append("    [%s] %s" % (status.upper(), pkey or "(no parameters)"))
    return "\n".join(lines) + "\n"
