"""Engine-wide size caps and search limits."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EngineConfig:
    """Caps that bound every enumeration in the engine.

    ``max_ring`` bounds ring carriers at construction time, and with them
    the N x N int32 tables a ring carries: 4·N² bytes for the multiplication
    table alone when the additive group is a 2-group, which adds by lanes,
    and 8·N² bytes otherwise, with the addition table.  ``max_module``
    bounds module carriers and ``max_homs`` the candidate space of a
    homomorphism enumeration.  Ring axiom checks are exact at every size
    and take no cap.
    """

    max_ring: int = 4096
    max_module: int = 4096
    max_homs: int = 1_000_000

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
