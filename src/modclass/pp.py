"""Positive-primitive formulas: evaluation, definable subgroups, and the
index invariants that detect elementary equivalence of modules."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ConsistencyError, check_cap
from .modules import FiniteModule, regular_module, solution_blocks
from .rings import FiniteRing, base_digits, base_index
from .subgroup import span, walk, zero
from .verdict import Verdict


@dataclass(frozen=True)
class PPFormula:
    """An existentially quantified homogeneous linear system.

    Each equation row lists ring-element coefficients for the free variables
    x_1..x_p followed by the bound variables y_1..y_q; the row asserts
    sum(a_j x_j) + sum(b_k y_k) = 0.
    """

    free: int
    bound: int
    equations: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        if self.free < 0 or self.bound < 0:
            raise ValueError("variable counts must be nonnegative")
        width = self.free + self.bound
        for row in self.equations:
            if len(row) != width:
                raise ValueError(
                    f"equation width {len(row)} != free+bound = {width} in {self.name or self}"
                )

    def validate_for(self, ring: FiniteRing) -> None:
        for row in self.equations:
            for c in row:
                if not 0 <= c < ring.size:
                    raise ValueError(f"coefficient {c} out of range for {ring.label}")

    @classmethod
    def from_json_dict(cls, data: dict, name: str = "") -> "PPFormula":
        if not isinstance(data, dict):
            raise ValueError("pp formula JSON must be an object")
        try:
            free, bound, rows = int(data["free"]), int(data["bound"]), data["eqs"]
        except KeyError as exc:
            raise ValueError(f"pp formula JSON missing key {exc}") from exc
        except TypeError as exc:
            raise ValueError("pp formula JSON 'free' and 'bound' must be integers") from exc
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("pp formula JSON 'eqs' must be a list of coefficient lists")
        try:
            equations = tuple(tuple(int(c) for c in row) for row in rows)
        except TypeError as exc:
            raise ValueError("pp formula JSON 'eqs' must hold integer coefficients") from exc
        return cls(free=free, bound=bound, equations=equations, name=name or str(data.get("name", "")))


def _scalar_systems(ring: FiniteRing, systems) -> list[tuple[tuple[int, ...], ...]]:
    """Integer coefficient rows instantiated as k·1, every distinct k of all
    the systems from one vectorised encode."""
    ks = sorted({int(k) for rows in systems for row in rows for k in row})
    values = ring.encode(np.array(ks, dtype=np.int64)[:, None] * ring.decode(ring.one))
    scalar = dict(zip(ks, values.tolist()))
    return [tuple(tuple(scalar[int(k)] for k in row) for row in rows) for rows in systems]


def scalar_formula(ring: FiniteRing, free: int, bound: int, int_rows, name: str = "") -> PPFormula:
    """Instantiate integer coefficients as additive multiples of the identity."""
    (equations,) = _scalar_systems(ring, [int_rows])
    return PPFormula(free=free, bound=bound, equations=equations, name=name)


class _Residual(NamedTuple):
    """A formula's system after unit-pivot elimination, over the w variables
    left: ``rows`` (k, w) still to be solved, and ``outputs`` (free, w)
    expressing each free variable in them."""

    rows: np.ndarray
    outputs: np.ndarray


def _eliminate(ring: FiniteRing, phi: PPFormula) -> _Residual:
    """Solve unit pivots out of phi's system, bound variables first.

    A row u·v + sum_k c_k·v_k = 0 with u a unit gives v = sum_k (-u⁻¹c_k)·v_k;
    substituted into the other rows and into the free variables' expressions,
    a coefficient d on v becomes d_k + d·(-u⁻¹c_k) (coefficients act on the
    left), and the row is dropped.  A solved bound variable disappears, since
    its witness always exists.  The variables left are those the remaining
    rows or the free variables' expressions mention; a free variable that no
    pivot solves expresses itself.
    """
    n = phi.free + phi.bound
    one, mul = ring.one, ring.mul_table
    rows = [list(row) for row in phi.equations]
    outputs = [[one if k == j else 0 for k in range(n)] for j in range(phi.free)]
    order = list(range(phi.free, n)) + list(range(phi.free))
    inverses: dict[int, int | None] = {0: None}

    def inverse(c: int) -> int | None:
        # In a finite ring a one-sided inverse is two-sided.  Zero is never
        # a pivot, not even in the zero ring, where no variable is left.
        if c not in inverses:
            j = int(np.argmax(mul[c] == one))
            inverses[c] = j if mul[c, j] == one else None
        return inverses[c]

    while True:
        pivot = next(
            ((i, v) for v in order for i, row in enumerate(rows) if inverse(row[v]) is not None), None
        )
        if pivot is None:
            break
        i, v = pivot
        row = rows.pop(i)
        minus_inverse = ring.neg(inverse(row[v]))
        solved = [0 if k == v else int(mul[minus_inverse, c]) for k, c in enumerate(row)]
        for target in rows + outputs:
            d, target[v] = target[v], 0
            if d:
                for k, s in enumerate(solved):
                    if s:
                        target[k] = ring.add(target[k], mul[d, s])
    rows = [row for row in rows if any(row)]
    keep = [k for k in range(n) if any(row[k] for row in rows + outputs)]
    return _Residual(
        np.array([[row[k] for k in keep] for row in rows], dtype=np.int64).reshape(len(rows), len(keep)),
        np.array([[out[k] for k in keep] for out in outputs], dtype=np.int64).reshape(phi.free, len(keep)),
    )


def _solution_mask(module: FiniteModule, phi: PPFormula, cfg: EngineConfig) -> np.ndarray:
    """Read-only mask over M^free marking tuples with a witness assignment.

    Unit pivots are eliminated (:func:`_eliminate`) once per ring and formula
    system, and the residuals are kept on the ring, as arrays alone;
    ``solution_blocks`` enumerates the residual system alone, and each
    residual solution gives its free coordinates through
    ``FiniteModule.combine``.  The module keeps only its own mask, keyed by
    the formula's system; the residual space is checked against ``max_homs``
    on every call, kept or not.
    """
    key, ring = (phi.free, phi.bound, phi.equations), module.ring
    residual = ring._pp_residuals.get(key)
    if residual is None:
        phi.validate_for(ring)
        residual = ring._pp_residuals[key] = _eliminate(ring, phi)
    m, width = module.size, residual.rows.shape[1]
    what = f"pp evaluation on {module.label}: residual witness space"
    check_cap("max_homs", m**width, cfg.max_homs, f"{what} {m**width} above cap {cfg.max_homs}")
    mask = module._pp_masks.get(key)
    if mask is None:
        mask = np.zeros(m**phi.free, dtype=bool)
        coefficients = residual.outputs.T[:, :, None]  # (width, free, 1)
        for witnesses in solution_blocks(module, residual.rows, cfg, what):
            coords = module.combine(coefficients, witnesses)  # (free, number of witnesses)
            mask[base_index(coords.T, m)] = True
        mask.flags.writeable = False
        module._pp_masks[key] = mask
    return mask


def _check_subgroup(module: FiniteModule, mask: np.ndarray, p: int, label: str) -> None:
    """The solutions must form a subgroup of M^p: contain 0 and equal their span."""
    if not mask[0]:
        raise ConsistencyError(f"{label}: solution set does not contain zero")
    m = module.size

    def add(u, v):  # coordinatewise addition of M^p tuple indices
        return base_index(module.add(base_digits(u, m, p), base_digits(v, m, p)), m)

    if not np.array_equal(span(add, len(mask), np.flatnonzero(mask)), mask):
        raise ConsistencyError(f"{label}: solution set not closed under addition")


def pp_evaluate(
    module: FiniteModule, phi: PPFormula, cfg: EngineConfig | None = None
) -> np.ndarray:
    """Solution subgroup of M^free, as sorted tuple indices (base |M| digits).

    Unit pivots are solved out and the rest is enumerated
    (:func:`_solution_mask`); the result is verified to be an additive
    subgroup before it is returned.
    """
    cfg = cfg or DEFAULTS
    mask = _solution_mask(module, phi, cfg)
    _check_subgroup(module, mask, phi.free, f"pp_evaluate({phi.name or phi.equations})")
    return np.nonzero(mask)[0]


def pp_subgroup_is_right_ideal(
    ring: FiniteRing, phi: PPFormula, cfg: EngineConfig | None = None
) -> Verdict:
    """Evaluate on the regular module and test closure under right multiplication.

    The witness carries the solution set and a generating set of the right
    ideal it forms (finite ring, so finitely generated automatically).
    """
    cfg = cfg or DEFAULTS
    if phi.free != 1:
        raise ValueError("right-ideal check needs exactly one free variable")
    reg = regular_module(ring, cfg)
    sols = pp_evaluate(reg, phi, cfg)
    mask = np.zeros(ring.size, dtype=bool)
    mask[sols] = True
    inside = mask[ring.mul_table[sols]]  # x·r for every solution x and every r
    if not inside.all():
        bad = np.argwhere(~inside)[0]
        return Verdict(
            False,
            witness=(int(sols[bad[0]]), int(bad[1])),
            note="solution set escapes under right multiplication",
        )
    gens = walk(ring.add, zero(ring.size), sols, lambda x: ring.mul_table[x, ring._gens])
    return Verdict(True, witness=gens, note=f"right ideal with {len(sols)} elements")


@dataclass(frozen=True)
class Invariant:
    """Index of one pp-definable subgroup inside another."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 1 or self.numerator < 1:
            raise ValueError("subgroup sizes must be positive")
        if self.numerator % self.denominator:
            raise ConsistencyError(
                f"denominator {self.denominator} does not divide numerator {self.numerator}"
            )

    @property
    def index(self) -> int:
        return self.numerator // self.denominator


def baur_monk_invariant(
    module: FiniteModule,
    phi: PPFormula,
    psi: PPFormula,
    cfg: EngineConfig | None = None,
) -> Invariant:
    """|phi(M)| over |phi(M) ∩ psi(M)| for one-free-variable formulas."""
    cfg = cfg or DEFAULTS
    if phi.free != 1 or psi.free != 1:
        raise ValueError("invariants need one free variable on both formulas")
    phi_mask = _solution_mask(module, phi, cfg)
    psi_mask = _solution_mask(module, psi, cfg)
    numerator = int(phi_mask.sum())
    denominator = int((phi_mask & psi_mask).sum())
    return Invariant(numerator=numerator, denominator=denominator)


# -- frozen formula library -------------------------------------------------------


# Immutable package data, parsed once at import.
_LIBRARY = json.loads(resources.files("modclass.data").joinpath("pp_library.json").read_text())


def library_formulas(ring: FiniteRing) -> dict[str, PPFormula]:
    """The frozen scalar-coefficient formulas, instantiated over a ring."""
    entries = _LIBRARY["formulas"]
    systems = _scalar_systems(ring, [e["eqs"] for e in entries])
    return {
        e["name"]: PPFormula(e["free"], e["bound"], equations, e["name"])
        for e, equations in zip(entries, systems)
    }


def library_pairs(ring: FiniteRing) -> list[tuple[PPFormula, PPFormula]]:
    """The frozen (phi, psi) pairs used by the multiplicativity property."""
    formulas = library_formulas(ring)
    return [(formulas[a], formulas[b]) for a, b in _LIBRARY["pairs"]]
