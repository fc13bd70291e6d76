"""Phase-tracked Pauli words and their action on the computational basis.

Conventions fixed here and used repo-wide:

* Site ordering: the basis-index bit of site 0 is the **most significant**
  bit. A computational basis index ``k`` assigns to site ``i`` the bit
  ``(k >> (n - 1 - i)) & 1`` (0 = spin up, +1 eigenvalue of Z).
* Phases are restricted to the fourth roots of unity ``i**k``; arbitrary
  complex weights live only on dense matrices.
* Every word is also held as bit masks ``(x, z, k)`` meaning
  ``i**k X**x Z**z``: bit ``n - 1 - i`` of ``x`` (of ``z``) is set when site
  ``i`` carries X or Y (Z or Y), and Y = iXZ, so each Y adds 1 to ``k``.
  Products (:func:`_product`), basis actions and commutation tests read
  only these masks (Aaronson & Gottesman, Phys. Rev. A 70, 052328 (2004)).
* Dense realizations are refused above ``DENSE_SITE_CAP`` (12) sites,
  dimension 4096.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ShieldlabError

LETTERS = "IXYZ"

#: hard ceiling for dense matrices; 2^12 = 4096, ~268 MB per complex matrix
DENSE_SITE_CAP = 12

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_TEXT = ("+", "+i", "-", "-i")
_SIGN = np.array([1.0, -1.0])
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


def check_dense_cap(n_sites: int) -> None:
    if n_sites > DENSE_SITE_CAP:
        raise ShieldlabError(
            f"dense realization of {n_sites} sites exceeds the cap of {DENSE_SITE_CAP}")


@dataclass(frozen=True)
class PauliString:
    """A word over {I, X, Y, Z} with a fourth-root-of-unity phase.

    ``letters[i]`` is the letter on site ``i``; ``phase_k`` encodes the
    scalar ``i**phase_k``. ``xzk`` holds the same word as the masks
    ``(x, z, k)`` of ``i**k X**x Z**z`` (see the module docstring).
    """

    letters: str
    phase_k: int = 0
    xzk: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not set(self.letters) <= set(LETTERS):
            raise ShieldlabError(f"invalid Pauli letters {self.letters!r}")
        try:
            k = operator.index(self.phase_k) % 4
        except TypeError:
            raise ShieldlabError(f"phase_k must be an integer, got {self.phase_k!r}") from None
        object.__setattr__(self, "phase_k", k)
        object.__setattr__(self, "xzk", (
            int("0" + self.letters.translate(_X_BITS), 2),
            int("0" + self.letters.translate(_Z_BITS), 2),
            (k + self.letters.count("Y")) % 4,
        ))

    # -- constructors ---------------------------------------------------

    @classmethod
    def single(cls, n_sites: int, site: int, letter: str) -> "PauliString":
        if not 0 <= site < n_sites:
            raise ShieldlabError(f"site {site} outside 0..{n_sites - 1}")
        word = ["I"] * n_sites
        word[site] = letter
        return cls("".join(word))

    @classmethod
    def from_sites(cls, n_sites: int, letters_by_site: dict[int, str],
                   phase_k: int = 0) -> "PauliString":
        word = ["I"] * n_sites
        for site, letter in letters_by_site.items():
            if not 0 <= site < n_sites:
                raise ShieldlabError(f"site {site} outside 0..{n_sites - 1}")
            word[site] = letter
        return cls("".join(word), phase_k)

    # -- basic structure -------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.letters)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.letters) if c != "I")

    # -- algebra ----------------------------------------------------------

    def basis_action(self) -> tuple[int, np.ndarray]:
        """Action on computational basis states, without the dense matrix.

        Returns ``(mask, coefs)`` such that P|j> = coefs[j] |j ^ mask>: with
        P = i**k X**x Z**z, the mask is x and coefs[j] = i**k (-1)**popcount(j & z).
        Lets dim-sized vectors be transformed in O(dim) instead of O(dim**2).
        """
        check_dense_cap(self.n_sites)
        x, z, k = self.xzk
        return x, _PHASES[k] * _signs(np.arange(1 << self.n_sites), z)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """P @ psi for a stack of column vectors ``psi`` (dim × columns)."""
        mask, coefs = self.basis_action()
        idx = np.arange(coefs.size) ^ mask
        return coefs[idx, None] * psi[idx, :]

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Render like ``"+i Z0 X3"``; omitted sites are I."""
        parts = [_PHASE_TEXT[self.phase_k]]
        parts.extend(f"{c}{i}" for i, c in enumerate(self.letters) if c != "I")
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str, n_sites: int) -> "PauliString":
        tokens = text.split()
        phase_k = 0
        if tokens and tokens[0] in _PHASE_TEXT:
            phase_k = _PHASE_TEXT.index(tokens[0])
            tokens = tokens[1:]
        word = ["I"] * n_sites
        for tok in tokens:
            letter, index = tok[0].upper(), tok[1:]
            if letter not in "XYZ" or not index.isdigit():
                raise ShieldlabError(f"bad Pauli token {tok!r}")
            site = int(index)
            if not 0 <= site < n_sites:
                raise ShieldlabError(f"site {site} outside 0..{n_sites - 1}")
            if word[site] != "I":
                raise ShieldlabError(f"site {site} assigned twice in {text!r}")
            word[site] = letter
        return cls("".join(word), phase_k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PauliString({self.to_text()!r})"


def _product(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Masks (x, z, k) of the product of two words given by their masks:
    moving X**x2 left past Z**z1 costs (-1)**popcount(z1 & x2)."""
    (x1, z1, k1), (x2, z2, k2) = a, b
    return x1 ^ x2, z1 ^ z2, (k1 + k2 + 2 * (z1 & x2).bit_count()) % 4


def _signs(idx: np.ndarray, z: int) -> np.ndarray:
    """(-1)**popcount(j & z) for every index j of ``idx``, in one pass over
    the set bits of z."""
    parity = np.zeros(idx.shape, dtype=idx.dtype)
    while z:
        b = z.bit_length() - 1
        parity ^= idx >> b
        z ^= 1 << b
    return _SIGN[parity & 1]
