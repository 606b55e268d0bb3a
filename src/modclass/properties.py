"""Freeness, projectivity, and flatness of finite modules.

Freeness and projectivity are decided by counting.  A finite module M has the
projective cover P(M) = (+) P_i^a_i, with P_i = R e_i over one primitive
idempotent e_i per class and M/JM = (+) S_i^a_i, and P(M) -> M has a
superfluous kernel (Bass 1960; Anderson & Fuller, GTM 13, section 27).  So M
is projective iff |P(M)| = |M|, and free of rank c iff it is projective with
a_i = c r_i, where R = (+) P_i^r_i.  Counting decides: |e_iM : e_iJM| =
|D_i|^a_i, D_i = e_iRe_i / e_iJe_i, walking no element.  The count lives in
``decompose`` (``_cover``), beside the decomposition it reads, since
Krull-Schmidt reads a projective module's summands off it too.  The ring-only
arrays per class (Re_i, e_iRe_i and its additive generators) are a cached
property of R's kept decomposition, |S_i| and |D_i| are counted on J's mask,
and a module keeps its a_i and JM, so asking it whether it is free, whether
it is projective and for its Krull-Schmidt signature counts once.  Only a
projective "yes" walks the e_iM, to build its section: the cover indices s
with cls∘s = id, checked exactly, with no module built for them.  A section
search, the counting walk and the seeded (searched) Krull-Schmidt stay as
test oracles; the search is the oracle on projective modules.

Flatness is decided by Tor.  With M = R^g / K, tensoring with R/J gives
Tor_1(R/J, M) = (K ∩ J^g) / JK, and M is flat iff it vanishes: every simple
right module is a summand of R/J and every R/I has a composition series, so
Tor_1(R/J, M) = 0 gives Tor_1(R/I, M) = 0 for every right ideal I (Lam,
GTM 189, section 4).  A "no" carries a relation sum(r_i m_i) = 0 on the
generators that factors through no matrix annihilating r, i.e. one outside
sum(r_i K).  The scan over every relation stays as a test oracle.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULTS, EngineConfig
from .errors import ConsistencyError
from .decompose import IdempotentDecomposition, _cover
from .ideals import jacobson_radical
from .modules import FiniteModule, _relation_generators
from .subgroup import span, walk
from .verdict import Verdict


def _kernel_verdict(
    module: FiniteModule, decomposition: IdempotentDecomposition, multiplicities: tuple[int, ...]
) -> Verdict | None:
    """The "no" of both predicates, when |P(M)| > |M|: the size of the kernel of P(M) -> M."""
    size = decomposition.sum_size(multiplicities)
    if size == module.size:
        return None
    return Verdict(
        False,
        witness=size // module.size,
        note=f"not projective: the projective cover, multiplicities {multiplicities}, has "
        f"{size} elements, so its kernel onto M has {size // module.size}",
    )


def is_free_module(module: FiniteModule, cfg: EngineConfig | None = None) -> Verdict:
    """Free of rank c iff projective with a_i = c r_i for every class i."""
    cfg = cfg or DEFAULTS
    if module.size == 1:
        return Verdict(True, witness=0, note="zero module is free of rank 0")
    decomposition, _, multiplicities, _ = _cover(module, cfg)
    no = _kernel_verdict(module, decomposition, multiplicities)
    if no is not None:
        return no
    pairs = list(zip(decomposition.sizes, multiplicities, decomposition.multiplicities))
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

    A "yes" carries a section of the canonical surjection cls: R^g -> M, as
    the array s of cover indices with cls∘s = id, checked exactly.  One walk
    per class over eM, least element first from JM, picks each m not yet
    reached and grows by eRe·m: as e_iRe_j ⊆ J for classes i != j, that is
    the walk from JM over all the e_iM growing by Rm, with a_i picks m in
    e_iM.  They give phi: (+) R e_i -> M, r e_i -> r m, onto by Nakayama and
    bijective by the count; its lift psi: r e_i -> r e_i rep[m] into the free
    cover satisfies cls∘psi = phi, so s = psi∘phi^-1.  A "no" carries the
    size of the cover's kernel.
    """
    cfg = cfg or DEFAULTS
    if module.size == 1:
        return Verdict(True, note="zero module is projective")
    decomposition, arrays, multiplicities, jm_mask = _cover(module, cfg)
    no = _kernel_verdict(module, decomposition, multiplicities)
    if no is not None:
        return no
    ring, act = module.ring, module.act_table
    phi = np.zeros(1, dtype=np.int64)
    psi = np.zeros((1, module.num_generators), dtype=np.int64)  # cover digits
    for (e, *_), (column, _, corner_gens), a in zip(decomposition.classes, arrays, multiplicities):
        picks = walk(module.add, jm_mask.copy(), np.unique(act[e]).tolist(), lambda m: act[corner_gens, m])
        if len(picks) != a:
            raise ConsistencyError(f"{module.label}: {len(picks)} picks in e M for e = {e}, not {a}")
        for m in picks:
            phi = module.add(phi[:, None], act[column, m][None, :]).ravel()
            lifted = ring.mul_table[column[:, None], module.coords(m)]
            psi = ring.add(psi[:, None], lifted[None, :]).reshape(len(phi), -1)
    if len(phi) != module.size or len(np.unique(phi)) != module.size:
        raise ConsistencyError(f"{module.label}: (+) P_i^a_i -> M is not a bijection")
    section = np.empty(module.size, dtype=np.int64)
    section[phi] = module._cover_encode(psi)
    if not np.array_equal(module.cls[section], np.arange(module.size)):
        raise ConsistencyError(f"{module.label}: the cover section does not split R^g -> M")
    return Verdict(
        True,
        witness=section,
        note=f"isomorphic to its projective cover, multiplicities {multiplicities}; splitting verified",
    )


class FlatnessReport(Verdict):
    """Outcome of the Tor test.  Every verdict is exact; a "no" carries the
    first relation, in cover order, that admits no factorization."""

    exact = True


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
    radical = jacobson_radical(module.ring)
    in_radical, radical_gens = radical._mask, np.array(radical.generators, dtype=np.int64)
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
