"""Freeness, projectivity, flatness - and where the three notions separate."""

from modclass import (
    build_ring,
    is_flat_module,
    is_free_module,
    is_projective_module,
    primitive_decomposition,
    quotient_module,
    regular_module,
)

# The classic non-flat example: Z/2 over Z/4.  The relation 2*m = 0 on the
# generator admits no factorization through a matrix annihilating 2.
z4 = build_ring("Z/4")
half = quotient_module(regular_module(z4), [0, 2], label="Z/2 over Z/4")
report = is_flat_module(half)
print(half.label, "flat:", report.value,
      "- violating relation r =", report.witness["support_coefficients"])
projective = is_projective_module(half).value
print("projective:", projective, "(flat and projective agree:",
      report.value == projective, ")")

# The column module P over M(2,GF(2)) separates projective from free:
# P is a direct summand of R (projective, flat) but P is not R^c for any c.
m2 = build_ring("M(2,GF(2))")
p = primitive_decomposition(m2).representatives[0]
print("\nP over M(2,GF(2)):")
print("  free:      ", is_free_module(p).value, "-", is_free_module(p).note)
print("  projective:", is_projective_module(p).value)
print("  flat:      ", is_flat_module(p).value)

# Projectivity is decided by counting: |P| equals the size of its projective
# cover.  A "yes" carries a splitting of the canonical surjection R^g -> P,
# built from the count and checked exactly.
verdict = is_projective_module(p)
print("  splitting section found:", verdict.witness is not None, "-", verdict.note)
