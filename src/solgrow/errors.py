"""Exception types shared across the package."""


class SolgrowError(Exception):
    """Base class for all package errors."""


class ParseError(SolgrowError):
    """Malformed group spec file or run configuration."""


class MixedVariants(SolgrowError):
    """Generating set mixes element variants or degrees."""


class CapExceeded(SolgrowError):
    """A desk-scale cap (element count, memory, ambient order) was hit."""

    def __init__(self, message: str, last_completed: int | None = None):
        super().__init__(message)
        self.last_completed = last_completed


class NotNormal(SolgrowError):
    """Subgroup is not normal in the requested ambient group."""


class NotSoluble(SolgrowError):
    """Operation requires a soluble group."""


class TrivialGroup(SolgrowError):
    """Operation requires a nontrivial group."""


class NotTransitive(SolgrowError):
    """Operation requires a transitive permutation group."""


class UnknownName(SolgrowError):
    """Catalog name not recognized."""


class DegenerateWindow(SolgrowError):
    """Fit window has too few usable data points."""


class ContextViolated(SolgrowError):
    """Group does not satisfy the structural context (transitive/irreducible)."""


class SeriesMismatch(SolgrowError):
    """Canonical series does not end at the expected subgroup (internal error)."""


class RankDeficient(SolgrowError):
    """Generators fail to span the target vector group (internal error)."""


class NotSelfCentralizing(SolgrowError):
    """No self-centralizing minimal normal subgroup available."""


class InvariantViolated(SolgrowError):
    """An internal consistency check failed (internal error)."""
