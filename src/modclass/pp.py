"""Positive-primitive formulas: evaluation, definable subgroups, and the
index invariants that detect elementary equivalence of modules."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ConsistencyError, SizeCapError
from .ideals import ideal_generated
from .modules import FiniteModule, regular_module
from .rings import FiniteRing
from .verdict import Verdict

_WITNESS_BLOCK = 1 << 16  # witness tuples evaluated per block


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

    def to_json_dict(self) -> dict:
        return {"free": self.free, "bound": self.bound, "eqs": [list(r) for r in self.equations]}

    @classmethod
    def from_json_dict(cls, data: dict, name: str = "") -> "PPFormula":
        try:
            return cls(
                free=int(data["free"]),
                bound=int(data["bound"]),
                equations=tuple(tuple(int(c) for c in row) for row in data["eqs"]),
                name=name or str(data.get("name", "")),
            )
        except KeyError as exc:
            raise ValueError(f"pp formula JSON missing key {exc}") from exc


def scalar_formula(ring: FiniteRing, free: int, bound: int, int_rows, name: str = "") -> PPFormula:
    """Instantiate integer coefficients as additive multiples of the identity."""
    rows = tuple(
        tuple(int(ring.scalar_mul(int(k), ring.one)) for k in row) for row in int_rows
    )
    return PPFormula(free=free, bound=bound, equations=rows, name=name)


def _solution_mask(module: FiniteModule, phi: PPFormula, cfg: EngineConfig) -> np.ndarray:
    """Mask over M^free marking tuples with a witness assignment."""
    phi.validate_for(module.ring)
    m = module.size
    p, q = phi.free, phi.bound
    space = m ** (p + q)
    if space > cfg.max_homs:
        raise SizeCapError(
            f"pp evaluation on {module.label}: witness space {space} above cap {cfg.max_homs}"
        )
    x_space = m**p
    mask = np.zeros(x_space, dtype=bool)
    for start in range(0, space, _WITNESS_BLOCK):
        w = np.arange(start, min(start + _WITNESS_BLOCK, space), dtype=np.int64)
        ok = np.ones(len(w), dtype=bool)
        for row in phi.equations:
            acc = np.zeros(len(w), dtype=np.int64)
            for j, coeff in enumerate(row):
                digit = (w // m**j) % m
                acc = module.add(acc, module.act_table[int(coeff), digit])
            ok &= acc == 0
        mask[w[ok] % x_space] = True
    return mask


def _check_subgroup(module: FiniteModule, mask: np.ndarray, p: int, label: str) -> None:
    sols = np.nonzero(mask)[0]
    if len(sols) == 0 or not mask[0]:
        raise ConsistencyError(f"{label}: solution set does not contain zero")
    m = module.size
    sums = np.zeros((len(sols), len(sols)), dtype=np.int64)
    for j in range(p):
        dj = (sols // m**j) % m
        sums += module.add(dj[:, None], dj[None, :]).astype(np.int64) * m**j
    if not mask[sums].all():
        raise ConsistencyError(f"{label}: solution set not closed under addition")


def pp_evaluate(
    module: FiniteModule, phi: PPFormula, cfg: EngineConfig | None = None
) -> np.ndarray:
    """Solution subgroup of M^free, as sorted tuple indices (base |M| digits).

    Witnesses are found by exhaustive enumeration; the result is verified to
    be an additive subgroup before it is returned.
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
    closed = bool(mask[ring.mul_table[np.ix_(sols, np.arange(ring.size))]].all())
    if not closed:
        bad = np.argwhere(~mask[ring.mul_table[np.ix_(sols, np.arange(ring.size))]])[0]
        return Verdict(
            False,
            witness=(int(sols[bad[0]]), int(bad[1])),
            note="solution set escapes under right multiplication",
        )
    gens: list[int] = []
    span = {0}
    for x in sols:
        if int(x) not in span:
            gens.append(int(x))
            span = set(ideal_generated(ring, "right", gens, cfg).elements)
    return Verdict(True, witness=tuple(gens), note=f"right ideal with {len(sols)} elements")


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

    def __mul__(self, other: "Invariant") -> "Invariant":
        return Invariant(self.numerator * other.numerator, self.denominator * other.denominator)


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


def _library_data() -> dict:
    with resources.files("modclass.data").joinpath("pp_library.json").open("r") as fh:
        return json.load(fh)


def library_formulas(ring: FiniteRing) -> dict[str, PPFormula]:
    """The frozen scalar-coefficient formulas, instantiated over a ring."""
    data = _library_data()
    out = {}
    for entry in data["formulas"]:
        out[entry["name"]] = scalar_formula(
            ring, entry["free"], entry["bound"], entry["eqs"], name=entry["name"]
        )
    return out


def library_pairs(ring: FiniteRing) -> list[tuple[PPFormula, PPFormula]]:
    """The frozen (phi, psi) pairs used by the multiplicativity property."""
    data = _library_data()
    formulas = library_formulas(ring)
    return [(formulas[a], formulas[b]) for a, b in data["pairs"]]
