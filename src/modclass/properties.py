"""Freeness, projectivity, and flatness of finite modules.

Freeness and projectivity are decided by counting.  A finite module M has the
projective cover P(M) = (+) P_i^a_i, with P_i = R e_i over one primitive
idempotent e_i per class and M/JM = (+) S_i^a_i, and P(M) -> M has a
superfluous kernel (Bass 1960; Anderson & Fuller, GTM 13, section 27).  So M
is projective iff |P(M)| = |M|, and free of rank c iff it is projective with
a_i = c r_i, where R = (+) P_i^r_i.  Each a_i is read off set sizes, and a
"yes" carries a section of the free cover R^g -> M checked exactly.
Krull-Schmidt and an exhaustive section search stay as test oracles.

Flatness is decided by Tor.  With M = R^g / K, tensoring with R/J gives
Tor_1(R/J, M) = (K ∩ J^g) / JK, and M is flat iff it vanishes: every simple
right module is a summand of R/J and every R/I has a composition series, so
Tor_1(R/J, M) = 0 gives Tor_1(R/I, M) = 0 for every right ideal I (Lam,
GTM 189, section 4).  A "no" carries a relation sum(r_i m_i) = 0 on the
generators that factors through no matrix annihilating r, i.e. one outside
sum(r_i K).  The scan over every relation stays as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ConsistencyError
from .decompose import IdempotentDecomposition, _corner, primitive_decomposition
from .ideals import jacobson_radical
from .modules import (
    FiniteModule,
    ModuleHom,
    _relation_generators,
    free_module,
)
from .rings import FiniteRing
from .subgroup import grow, span
from .verdict import Verdict


@dataclass(frozen=True)
class _CoverCount:
    """The projective cover P(M) = (+) P_i^a_i of a module, by counting:
    P_i and r_i (R = (+) P_i^r_i) come from ``decomposition``, the a_i are
    ``multiplicities``, and ``radical_span`` marks JM in M's carrier."""

    decomposition: IdempotentDecomposition
    multiplicities: tuple[int, ...]
    radical_span: np.ndarray

    @property
    def size(self) -> int:
        return self.decomposition.sum_size(self.multiplicities)


def _radical_parts(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """J's membership mask over R and its additive generators, read off the
    radical kept on the ring."""
    radical = jacobson_radical(ring)
    in_radical = np.zeros(ring.size, dtype=bool)
    in_radical[list(radical.elements)] = True
    return in_radical, np.array(radical.generators, dtype=np.int64)


def _cover_count(module: FiniteModule, cfg: EngineConfig) -> _CoverCount:
    """Count the a_i of M/JM = (+) S_i^a_i.

    e_i(M/JM) = (e_iM + JM) / JM is a vector space of dimension a_i over the
    division ring D_i = e_iRe_i / e_iJe_i, so |e_iM + JM| / |JM| = |D_i|^a_i.
    JM is spanned by J's additive generators acting on M's generators, and
    e_iM by e_i times R's additive generators acting on them.  Counts that
    contradict the theory raise ConsistencyError rather than give a verdict.
    R's decomposition and J are computed once per ring and kept on it.
    """
    ring = module.ring
    decomposition = primitive_decomposition(ring, cfg)
    if decomposition.sum_size(decomposition.multiplicities) != ring.size:
        raise ConsistencyError(f"{ring.label}: primitive classes do not cover the regular module")
    in_radical, radical_gens = _radical_parts(ring)
    act, gens = module.act_table, np.array(module.gens)
    radical_span = span(module.add, module.size, act[radical_gens[:, None], gens].ravel())
    radical_size = np.count_nonzero(radical_span)
    multiplicities = []
    for e, *_ in decomposition.classes:
        corner = _corner(ring, e)
        division = len(corner) // np.count_nonzero(in_radical[corner])
        mask = radical_span.copy()
        for x in act[ring.mul_table[e, ring._gens][:, None], gens].ravel():
            if not mask[x]:
                grow(module.add, mask, x)
        quotient = np.count_nonzero(mask) // radical_size
        a = 0
        while quotient % division == 0 and quotient > 1:
            quotient //= division
            a += 1
        if quotient != 1:
            raise ConsistencyError(
                f"{module.label}: |e M + JM| / |JM| for e = {e} is not a power of |D| = {division}"
            )
        multiplicities.append(a)
    count = _CoverCount(decomposition, tuple(multiplicities), radical_span)
    if count.size % module.size:
        raise ConsistencyError(
            f"{module.label}: projective cover of size {count.size} cannot map onto {module.size} elements"
        )
    return count


def _cover_section(module: FiniteModule, count: _CoverCount, cfg: EngineConfig) -> ModuleHom:
    """A section of the canonical surjection R^g -> M of a projective M.

    Picks m in e_iM greedily, least index first, until their images span each
    e_i(M/JM); then phi: (+) R e_i -> M, r e_i -> r m is onto by Nakayama and
    bijective by the count.  Its lift psi: r e_i -> r e_i rep[m] into the free
    cover satisfies cls∘psi = phi, so s = psi∘phi^-1 is a section.
    """
    ring = module.ring
    act, mul = module.act_table, ring.mul_table
    # M's presentation already holds arrays over the whole free cover, so the
    # cover as a module costs no more than M and is not capped a second time.
    cover = free_module(
        ring, module.num_generators, cfg.with_overrides(max_module=max(cfg.max_module, module.cover_size))
    )
    reached = count.radical_span.copy()
    phi = np.zeros(1, dtype=np.int64)
    psi = np.zeros((1, module.num_generators), dtype=np.int64)  # cover digits
    for (e, *_), a in zip(count.decomposition.classes, count.multiplicities):
        column = np.unique(mul[:, e])
        candidates = np.unique(act[e])
        for _ in range(a):
            candidates = candidates[~reached[candidates]]
            if len(candidates) == 0:
                break
            m = int(candidates[0])
            for x in act[ring._gens, m]:
                if not reached[x]:
                    grow(module.add, reached, x)
            phi = module.add(phi[:, None], act[column, m][None, :]).ravel()
            lifted = mul[column[:, None], module.coords(m)]
            psi = ring.add_table[psi[:, None], lifted[None, :]].reshape(len(phi), -1)
    if len(phi) != module.size or len(np.unique(phi)) != module.size:
        raise ConsistencyError(f"{module.label}: (+) P_i^a_i -> M is not a bijection")
    table = np.empty(module.size, dtype=np.int64)
    table[phi] = module._cover_encode(psi)
    if not np.array_equal(module.cls[table], np.arange(module.size)):
        raise ConsistencyError(f"{module.label}: the cover section does not split R^g -> M")
    return ModuleHom(module, cover, table)


def is_free_module(module: FiniteModule, cfg: EngineConfig | None = None) -> Verdict:
    """Free of rank c iff projective with a_i = c r_i for every class i."""
    cfg = cfg or DEFAULTS
    if module.size == 1:
        return Verdict(True, witness=0, note="zero module is free of rank 0")
    count = _cover_count(module, cfg)
    if count.size != module.size:
        return Verdict(False, witness=count.size // module.size, note=_kernel_note(count, module))
    decomposition = count.decomposition
    pairs = list(zip(decomposition.sizes, count.multiplicities, decomposition.multiplicities))
    size, a, r = pairs[0]
    c, remainder = divmod(a, r)
    if remainder:
        return Verdict(
            False,
            witness=(size, a, r),
            note=f"multiplicity {a} of the size-{size} class is not a multiple of {r}",
        )
    for size, a, r in pairs:
        if a != c * r:
            return Verdict(
                False,
                witness=(size, a, c * r),
                note=f"class of size {size} has multiplicity {a}, expected {c * r}",
            )
    return Verdict(True, witness=c, note=f"isomorphic to R^{c}")


def is_projective_module(module: FiniteModule, cfg: EngineConfig | None = None) -> Verdict:
    """Projective iff |M| equals the size of its projective cover.

    A "yes" carries an exactly checked section of the canonical surjection
    from the free cover; a "no" carries the size of the cover's kernel.
    """
    cfg = cfg or DEFAULTS
    if module.size == 1:
        return Verdict(True, note="zero module is projective")
    count = _cover_count(module, cfg)
    if count.size != module.size:
        return Verdict(False, witness=count.size // module.size, note=_kernel_note(count, module))
    return Verdict(
        True,
        witness=_cover_section(module, count, cfg),
        note=f"isomorphic to its projective cover, multiplicities {count.multiplicities}; "
        "splitting verified",
    )


def _kernel_note(count: _CoverCount, module: FiniteModule) -> str:
    return (
        f"not projective: the projective cover, multiplicities {count.multiplicities}, has "
        f"{count.size} elements, so its kernel onto M has {count.size // module.size}"
    )


@dataclass
class FlatnessReport:
    """Outcome of the Tor test.  Every verdict is exact; a "no" carries the
    first relation, in cover order, that admits no factorization."""

    value: bool
    witness: dict | None = None
    note: str = ""

    @property
    def exact(self) -> bool:
        return True

    def __bool__(self) -> bool:
        return self.value


def is_flat_module(module: FiniteModule, cfg: EngineConfig | None = None) -> FlatnessReport:
    """Flat iff Tor_1(R/J, M) = (K ∩ J^g) / JK vanishes, M = R^g / K.

    JK is spanned by J's additive generators times K's, and K ∩ J^g is
    counted over the relations whose every cover digit lies in J.  A relation
    v in K ∩ J^g outside JK lies outside v_1 K + ... + v_g K ⊆ JK, so a
    non-flat M always has a witness: the first non-factoring relation.
    The test needs no cap, since it works inside M's own presentation;
    ``cfg`` is accepted so that all three module predicates take the same
    arguments.
    """
    relations = module.relations
    if module.size == 1 or len(relations) == 1:
        return FlatnessReport(True, note="zero module" if module.size == 1 else "free presentation")
    in_radical, radical_gens = _radical_parts(module.ring)
    k_gens = _relation_generators(module)
    products = module.cover_act(radical_gens[:, None, None], k_gens).ravel()
    jk = np.count_nonzero(span(module.cover_add, module.cover_size, products))
    k_in_radical = int(in_radical[module._cover_digits(relations)].all(axis=1).sum())
    if jk == k_in_radical:
        return FlatnessReport(True, note=f"Tor_1(R/J, M) = 0: |JK| = |K ∩ J^g| = {jk}")
    return FlatnessReport(
        False,
        witness=_nonfactoring_relation(module, k_gens),
        note=f"|Tor_1(R/J, M)| = |K ∩ J^g| / |JK| = {k_in_radical // jk}",
    )


def _nonfactoring_relation(module: FiniteModule, k_gens: np.ndarray) -> dict:
    """The first relation v, in cover order, outside v_1 K + ... + v_g K.

    Left multiples of a factoring relation factor with the same witnesses, so
    verified orbits are skipped; relations sharing an image subgroup share
    one span.
    """
    verified = np.zeros(module.cover_size, dtype=bool)
    memo: dict[tuple[int, ...], np.ndarray] = {}
    for v in module.relations:
        v = int(v)
        if v == 0 or verified[v]:
            continue
        digits = module._cover_digits(np.int64(v))
        support = [i for i in range(module.num_generators) if digits[i]]
        image_gens: set[int] = set()
        for i in support:
            image_gens.update(int(u) for u in module.cover_act(int(digits[i]), k_gens))
        image_gens.discard(0)
        key = tuple(sorted(image_gens))
        image = memo.get(key)
        if image is None:
            image = memo[key] = span(module.cover_add, module.cover_size, key)
        if not image[v]:
            return {
                "coefficients": tuple(int(d) for d in digits),
                "support_coefficients": tuple(int(digits[i]) for i in support),
                "generators": tuple(support),
                "note": "relation among the generator images admits no factorization",
            }
        verified[module._cover_encode(module.ring.mul_table[:, digits])] = True
    raise ConsistencyError(f"{module.label}: Tor_1(R/J, M) != 0 but every relation factors")
