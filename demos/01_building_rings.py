"""Build finite rings from spec expressions and poke at their arithmetic."""

import json
import tempfile

import numpy as np

from modclass import build_ring, units, verify_ring_axioms

# The spec language covers cyclic rings, Galois fields, matrix and
# upper-triangular rings, products, and polynomial quotients.
for spec in ["Z/6", "GF(4)", "M(2,GF(2))", "T(2,GF(2))",
             "PolyQuot(GF(2),[0,0,1])", "Z/4 x GF(4)"]:
    ring = build_ring(spec)
    print(f"{spec:25s} size={ring.size:3d} commutative={ring.is_commutative} "
          f"units={len(units(ring))}")

# Every element is an integer index; addition is the mixed-radix group law
# over the additive cyclic orders, multiplication comes from a table.
m2 = build_ring("M(2,GF(2))")
print("\nM(2,GF(2)) additive orders:", m2.orders)
e11, e12 = 1, 2  # matrix units live at small indices in this encoding
print("E11 * E12 =", m2.mul(e11, e12), "(= E12)")
print("E12 * E12 =", m2.mul(e12, e12), "(= 0, strictly upper is nilpotent)")

# Axiom verification is exact at every size (it reduces to the additive
# generators) and reports per axiom.
print("\n", verify_ring_axioms(m2).summary())

# Rings can also come from raw structure constants in a JSON file.
z6 = build_ring("Z/6")
with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
    json.dump({"orders": [6], "one": 1, "table": z6.mul_table.tolist()}, fh)
    path = fh.name
rebuilt = build_ring(f"StructConst({path})")
print("\nrebuilt from structure constants:", rebuilt.size, "elements,",
      "tables agree:", bool(np.array_equal(rebuilt.mul_table, z6.mul_table)))
