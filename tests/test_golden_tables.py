"""Ring tables stay bit-for-bit identical to a recorded set of fingerprints.

``tests/data/golden_tables.json`` holds, for each ring below, the sha256 of its
``mul_table`` and ``add_table`` as int64 bytes, plus its additive orders and
identity index.  Re-record it (only when a table change is intended) with
``PYTHONPATH=src python tests/test_golden_tables.py``.
"""

import hashlib
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from modclass import BUILTIN_CORPUS_SPECS, build_ring, random_recipe_rings
from modclass.rings import _add_rows, _lane_sum

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


def golden_rings() -> Iterator[tuple[str, object]]:
    """(name, ring) for every ring whose tables are recorded, built afresh."""
    yield from ((spec, build_ring(spec)) for spec in BUILTIN_CORPUS_SPECS)
    yield from ((r.label, r) for r in random_recipe_rings(100, seed=0))
    yield from ((spec, build_ring(spec)) for spec in _fields())
    yield from ((spec, build_ring(spec)) for spec in RING_SCALE_SPECS)


def golden_entries() -> list[dict]:
    return [_entry(name, ring) for name, ring in golden_rings()]


def test_tables_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_entries()
    assert [e["name"] for e in got] == [e["name"] for e in expected]
    mismatched = [g["name"] for g, e in zip(got, expected) if g != e]
    assert not mismatched, mismatched


def test_lane_sum_matches_gather():
    # Every recorded ring whose additive orders are powers of two, and two
    # that mix lane widths: the lane sum, the gather from the addition table,
    # ring.add and the digitwise sum agree on random row blocks.  ring.add
    # adds by lanes on these rings, and is also checked on a scalar with an
    # array, on broadcast arrays and on two scalars against the addition
    # table, which is the translation fill.
    rng = np.random.default_rng(23)
    rings = [ring for _, ring in golden_rings() if _lane_sum(ring.orders) is not None]
    assert set(RING_SCALE_SPECS) <= {ring.label for ring in rings}
    rings += [build_ring("Z/2 x M(2,Z/4)"), build_ring("Z/8 x Z/2 x Z/2")]
    for ring in rings:
        lane, table = _lane_sum(ring.orders), ring.add_table
        gather = _add_rows(table)
        rows = rng.integers(ring.size, size=(8, ring.size), dtype=np.int32)
        step = rng.integers(ring.size, size=ring.size, dtype=np.int32)
        expected = ring.encode(ring.decode(rows) + ring.decode(step))
        assert np.array_equal(lane(rows, step), expected), ring.label
        assert np.array_equal(gather(rows, step), expected), ring.label
        assert np.array_equal(ring.add(rows, step), expected), ring.label
        assert np.array_equal(lane(step, step), gather(step, step)), ring.label
        x, col, row = int(step[0]), step[:16, None], step[None, -16:]
        assert np.array_equal(ring.add(x, step), table[x, step]), ring.label
        assert np.array_equal(ring.add(col, row), table[col, row]), ring.label
        total = ring.add(x, int(step[1]))
        assert type(total) is int and total == table[x, step[1]], ring.label


def test_odd_orders_select_the_gather():
    # Their fills gather from the addition table, so they build it with the ring.
    for spec in ("Z/12", "GF(9) x Z/4"):
        ring = build_ring(spec)
        assert _lane_sum(ring.orders) is None and ring._add_table is not None, spec


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_entries(), indent=1) + "\n", encoding="utf-8")
