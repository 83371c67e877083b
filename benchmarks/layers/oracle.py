"""Answer oracle: canonical row digests checked against committed files.

``expected/<workload>.json`` maps every distinct operation key of a
workload to ``{"rows": n, "sha256": hex}``. The digest is taken over
the canonicalised rows: in result order for ``ORDER BY`` queries, as a
sorted bag otherwise; numeric literals are rounded to 9 significant
digits so a change of float formatting is not a wrong answer, and
blank-node labels (unstable by design) are erased.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"

_XSD = "http://www.w3.org/2001/XMLSchema#"
_FLOAT_TYPES = {_XSD + "float", _XSD + "double", _XSD + "decimal"}


def canonical_number(lexical: str) -> str:
    try:
        return format(float(lexical), ".9g")
    except ValueError:
        return lexical


def canonical_term(term: Optional[Mapping[str, str]]) -> Optional[list]:
    """One binding in SPARQL-JSON encoding -> a comparable list."""
    if term is None:
        return None
    kind = term["type"]
    if kind == "bnode":
        return ["bnode"]
    if kind == "uri":
        return ["uri", term["value"]]
    datatype = term.get("datatype", "")
    value = term["value"]
    if datatype in _FLOAT_TYPES:
        value = canonical_number(value)
    return ["literal", value, datatype, term.get("xml:lang", "")]


def canonical_rows(rows: Iterable[Mapping[str, Mapping[str, str]]],
                   ordered: bool) -> List[str]:
    """Rows (var -> SPARQL-JSON term) as canonical strings."""
    out = [json.dumps(sorted((var, canonical_term(term))
                             for var, term in row.items()),
                      separators=(",", ":"))
           for row in rows]
    if not ordered:
        out.sort()
    return out


def digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def answer(rows, ordered: bool) -> Dict[str, object]:
    lines = canonical_rows(rows, ordered)
    return {"rows": len(lines), "sha256": digest(lines)}


def load_expected(workload: str) -> Dict[str, Dict[str, object]]:
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def write_expected(workload: str,
                   answers: Dict[str, Dict[str, object]]) -> pathlib.Path:
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps(answers, indent=0, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
