"""Exception types raised across the library.

Every error is a ``ShieldlabError`` (itself a ``ValueError``), so callers can
catch broadly or per condition.
"""


class ShieldlabError(ValueError):
    """Base class for all shieldlab errors.

    ``key``, when given, names the argument or config key at fault, such as
    ``edges[3]`` or ``lattice.edges[3]``; the message then begins with it.
    """

    def __init__(self, message: str = "", key: str | None = None):
        super().__init__(f"{key}: {message}" if key else message)
        self.key, self.message = key, message


# -- lattice / split validation ----------------------------------------------

class SelfEdgeError(ShieldlabError):
    """An edge joins a site to itself."""


class DuplicateEdgeError(ShieldlabError):
    """The same unordered site pair appears in more than one edge."""


class IndexOutOfRangeError(ShieldlabError):
    """A site index lies outside [0, n_sites)."""


class NonFiniteParameterError(ShieldlabError):
    """A coupling or field is NaN or infinite."""


class LengthMismatchError(ShieldlabError):
    """A parameter list has the wrong length for the lattice."""


class NotACoverError(ShieldlabError):
    """The two region sets do not cover all sites."""


class CrossEdgeError(ShieldlabError):
    """An edge connects the two regions without passing through the interface."""


class NonzeroInterfaceFieldError(ShieldlabError):
    """A transverse field is nonzero on an interface site."""


class NotAChainError(ShieldlabError):
    """The lattice is not an open chain (required for the dual construction)."""


# -- operator layer -----------------------------------------------------------

class SizeMismatchError(ShieldlabError):
    """Operands live on different numbers of sites / dimensions."""


class DimensionOverflowError(ShieldlabError):
    """A dense realization would exceed the configured site cap."""


class NotHermitianError(ShieldlabError):
    """A matrix required to be Hermitian is not."""


class InvalidSiteSetError(ShieldlabError):
    """A requested site subset is not contained in the state's sites."""


class TermOutsideSplitError(ShieldlabError):
    """A Hamiltonian term is supported outside both region sets."""


# -- series --------------------------------------------------------------------

class NonConvergenceError(ShieldlabError):
    """A series did not converge within the iteration cap."""
