"""Exception types shared across the engine."""


class ModclassError(Exception):
    """Base class for all engine errors."""


class RingSpecError(ModclassError):
    """Malformed ring-spec expression or structure-constant file."""


class RingValidationError(ModclassError):
    """Structure constants violate the ring axioms.

    Carries the axiom report that triggered the failure in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SizeCapError(ModclassError):
    """A carrier, enumeration, or search exceeded its configured cap: ``cap`` names it (an
    ``EngineConfig`` field, "free_cover", "ideal_enum" or "lattice"), above ``limit`` at ``requested``."""

    def __init__(self, message: str, *, cap: str, requested: int, limit: int):
        super().__init__(message)
        self.cap, self.requested, self.limit = cap, requested, limit


def check_cap(cap: str, requested: int, limit: int, message: str) -> None:
    """Raise SizeCapError(message) for ``cap`` when ``requested`` is above ``limit``."""
    if requested > limit:
        raise SizeCapError(message, cap=cap, requested=requested, limit=limit)


class SideError(ModclassError):
    """An ideal of the wrong sidedness was passed (e.g. quotient by a one-sided ideal)."""


class ClosureError(ModclassError):
    """A claimed submodule is not closed under addition or the ring action."""


class ConsistencyError(ModclassError):
    """Two independent computations of the same fact disagree; signals an engine bug."""
