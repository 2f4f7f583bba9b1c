"""Exception hierarchy for domain errors.

Every error that a caller can provoke with bad input derives from
:class:`AprootsError`.  The package has no `assert` statements: the
invariants of its constructions are held by tests, and the internal
failures still checked at run time raise explicitly, so they survive
`python -O`.
"""


class AprootsError(Exception):
    """Base class for all domain errors raised by this package."""


class CartanError(AprootsError):
    """Invalid Cartan matrix input."""


class BadDiagonal(CartanError):
    pass


class PositiveOffDiagonal(CartanError):
    pass


class NotSymmetrizable(CartanError):
    pass


class UnknownLabel(AprootsError):
    pass


class MalformedInput(AprootsError):
    """A command-line vector or word that does not parse or has the wrong length."""


class RankOutOfRange(AprootsError):
    pass


class NotAffine(AprootsError):
    pass


class IndexOutOfRange(AprootsError):
    pass


class NotARoot(AprootsError):
    """A vector that is not a root, or not a real root where one is needed."""


class NegativeBound(AprootsError):
    """A level, depth or move bound below zero."""


class NotAlmostPositive(AprootsError):
    pass


class NotInPhiC(AprootsError):
    pass


class NotInImaginaryCone(AprootsError):
    pass


class NotInTube(AprootsError):
    pass


class DeltaHasNoTubeSupport(NotInTube):
    pass


class NotDistinct(AprootsError):
    pass


class NotACluster(AprootsError):
    pass


class RootNotInCluster(AprootsError):
    pass


class NonExactDivision(AprootsError):
    """Laurent-phenomenon violation; signals an implementation bug."""


class NotSignCoherent(AprootsError):
    """A c-vector with entries of both signs; signals an implementation bug."""


class DepthTooDeep(AprootsError):
    """Polynomial term cap exceeded during seed exploration."""


class RankNot3(AprootsError):
    pass
