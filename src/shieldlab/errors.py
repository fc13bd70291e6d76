"""The one exception type the library raises.

Every refusal, from a malformed config to a broken precondition of the
theorem, is a ``ShieldlabError`` (itself a ``ValueError``); its ``key`` names
the argument or config key at fault, and its message says which check fired.
"""


class ShieldlabError(ValueError):
    """A refused input or an unmet precondition.

    ``key``, when given, names the argument or config key at fault, such as
    ``edges[3]`` or ``lattice.edges[3]``; the message then begins with it.
    """

    def __init__(self, message: str = "", key: str | None = None):
        super().__init__(f"{key}: {message}" if key else message)
        self.key, self.message = key, message
