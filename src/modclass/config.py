"""Engine-wide size caps and search limits."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EngineConfig:
    """Caps that bound every enumeration in the engine.

    ``max_ring`` bounds ring carriers at construction time.  Addition and
    multiplication are stored as full tables up to ``mul_table_cap`` elements
    and evaluated from additive-generator products above it; operations that
    need the tables refuse rings above it.  ``ideal_enum_cap`` bounds full
    one-sided ideal lattice enumeration.  ``max_module`` bounds module
    carriers, ``max_homs`` the candidate space of a homomorphism enumeration,
    and ``flat_relation_bound`` the default relation length scanned by the
    flatness check.  Ring axiom checks are exact at every size and take no cap.
    """

    max_ring: int = 4096
    mul_table_cap: int = 4096
    ideal_enum_cap: int = 64
    max_module: int = 4096
    max_homs: int = 1_000_000
    flat_relation_bound: int = 3

    def with_overrides(self, **kwargs) -> "EngineConfig":
        return replace(self, **kwargs)


DEFAULTS = EngineConfig()

ENV_MAX_SIZE = "MODCLASS_MAX_SIZE"


def config_from_env(base: EngineConfig = DEFAULTS) -> EngineConfig:
    """Apply environment overrides (currently just the ring cap)."""
    raw = os.environ.get(ENV_MAX_SIZE)
    if raw is None:
        return base
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_MAX_SIZE} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{ENV_MAX_SIZE} must be positive, got {cap}")
    return base.with_overrides(max_ring=cap)
