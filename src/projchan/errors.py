"""Exception taxonomy shared across the package."""


class ProjchanError(Exception):
    """Base class for all package errors."""


class DimensionOverflow(ProjchanError):
    pass


class BadDims(ProjchanError):
    pass


class DimMismatch(ProjchanError):
    pass


class NotPositiveSemidefinite(ProjchanError):
    pass


class BadAlpha(ProjchanError):
    pass


class NotProjectiveClass(ProjchanError):
    pass


class SpecInvalid(ProjchanError):
    pass


class NonPureEnsemble(ProjchanError):
    pass


class NotWeaklyCovariant(ProjchanError):
    pass


class OptimalStateMismatch(ProjchanError):
    pass


class ParseError(ProjchanError):
    pass


class ValidationError(ProjchanError):
    pass
