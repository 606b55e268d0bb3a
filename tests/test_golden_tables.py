"""Ring tables stay bit-for-bit identical to a recorded set of fingerprints.

``tests/data/golden_tables.json`` holds, for each ring below, the sha256 of its
``mul_table`` and ``add_table`` as int64 bytes, plus its additive orders and
identity index.  Re-record it (only when a table change is intended) with
``PYTHONPATH=src python tests/test_golden_tables.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from modclass import BUILTIN_CORPUS_SPECS, build_ring, random_recipe_rings

GOLDEN = Path(__file__).parent / "data" / "golden_tables.json"

RING_SCALE_SPECS = (
    "Z/2048",
    "GF(128)",
    "PolyQuot(GF(2),[1,0,0,1,0,0,0,0,0,1])",
    "M(2,Z/4)",
)


def _fields(limit: int = 256) -> list[str]:
    specs = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            specs.append(f"GF({q})")
    return specs


def _sha(table) -> str:
    return hashlib.sha256(np.ascontiguousarray(table, dtype=np.int64).tobytes()).hexdigest()


def _entry(name: str, ring) -> dict:
    return {
        "name": name,
        "orders": list(ring.orders),
        "one": int(ring.one),
        "mul_sha256": _sha(ring.mul_table),
        "add_sha256": _sha(ring.add_table),
    }


def golden_entries() -> list[dict]:
    entries = [_entry(spec, build_ring(spec)) for spec in BUILTIN_CORPUS_SPECS]
    entries += [_entry(r.label, r) for r in random_recipe_rings(100, seed=0)]
    entries += [_entry(spec, build_ring(spec)) for spec in _fields()]
    entries += [_entry(spec, build_ring(spec)) for spec in RING_SCALE_SPECS]
    return entries


def test_tables_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_entries()
    assert [e["name"] for e in got] == [e["name"] for e in expected]
    mismatched = [g["name"] for g, e in zip(got, expected) if g != e]
    assert not mismatched, mismatched


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_entries(), indent=1) + "\n", encoding="utf-8")
