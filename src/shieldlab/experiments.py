"""Seeded experiment runners behind the command-line interface.

Each runner takes a plain-dict config (usually loaded from JSON), runs a
deterministic computation and returns a :class:`~shieldlab.tables.ResultTable`
whose metadata carries the reproducibility fingerprint (config hash, seed,
library version) and a ``verdict`` dict classifying the outcome against the
library-wide thresholds.

Randomness is counter-based and platform independent: every draw of a point
reads the Philox4x64-10 stream keyed by ``(seed << 64) + point_index``
(:func:`point_rng`), so trials are reproducible individually and in any
order. A draw from [lo, hi] is lo + (hi - lo) * u, with u = (w >> 11) * 2**-53
for the stream's next 64-bit word w. The stream is computed here in pure
Python, so draws do not depend on numpy's ``Generator``, which carries no
version compatibility guarantee; on numpy 2.4 they equal its ``Philox``
draws. The draw order inside a point is documented per runner and never
changes.

The sidecar's ``config_sha256`` is the SHA-256 of the config's canonical
JSON (sorted keys, no spaces), also computed here in pure Python
(:func:`config_hash`), so no run loads ``hashlib`` or the OpenSSL library
behind it.
"""

from __future__ import annotations

import json
import math
from itertools import product

import numpy as np

from . import __version__
from .closedform import fourspin_magnetization
from .dynamics import QuenchProtocol, _observable_site, run_quench
from .errors import ShieldlabError
from .hamiltonian import (
    _mask_sums,
    build_hamiltonian,
    dual_algebra_residual,
    dual_chain,
    split_hamiltonian,
)
from .lattice import (
    LatticeSpec,
    make_chain,
    make_diamond,
    update_parameters,
    validate_lattice,
    validate_split,
)
from .pauli import DENSE_SITE_CAP, PauliString, check_dense_cap
from .tables import ResultTable
from .thermal import (
    DensityMatrix,
    _classify,
    _reduced_states,
    _states,
    classify_distance,
    expectation,
    trace_distance,
)

CONJECTURE_PASS_TOL = 1e-8
ORACLE_AGREEMENT_TOL = 1e-8
DUAL_RESIDUAL_TOL = 1e-12
QUENCH_SHIELDED_TOL = 1e-9


_WORD = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments


class _Philox:
    """The Philox4x64-10 stream of a 128-bit key, read one double at a time.

    Each block of four 64-bit words is ten rounds of the counter, which is
    incremented from 0 before the block; the words are served in order and
    word w gives the double (w >> 11) * 2**-53 in [0, 1).
    """

    def __init__(self, key: int):
        self._key = (key & _WORD, key >> 64)
        self._counter = 0
        self._words: list[int] = []

    def _block(self) -> list[int]:
        self._counter += 1
        c0, c1, c2, c3 = self._counter, 0, 0, 0  # a point reads far fewer than 2**64 blocks
        k0, k1 = self._key
        for _ in range(10):
            p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
            c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & _WORD,
                              (p0 >> 64) ^ c3 ^ k1, p0 & _WORD)
            k0, k1 = (k0 + _PHILOX_W[0]) & _WORD, (k1 + _PHILOX_W[1]) & _WORD
        return [c3, c2, c1, c0]  # served from the end

    def uniform(self, lo: float, hi: float) -> float:
        """``lo + (hi - lo) * u`` for the stream's next double u."""
        if not self._words:
            self._words = self._block()
        return lo + (hi - lo) * ((self._words.pop() >> 11) * 2.0 ** -53)


def point_rng(seed: int, index: int) -> _Philox:
    """The Philox4x64-10 stream of one experiment point, keyed by
    ``(seed << 64) + index``; its one method is ``uniform(lo, hi)``."""
    return _Philox((int(seed) << 64) + int(index))


_MASK32 = (1 << 32) - 1
_SHA_H = (0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,  # initial hash value
          0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19)
_SHA_K = (  # round constants
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4,
    0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE,
    0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F,
    0x4A7484AA, 0x5CB0A9DC, 0x76F988DA, 0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC,
    0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070, 0x19A4C116,
    0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7,
    0xC67178F2)


def _digest(data: bytes) -> str:
    """SHA-256 (FIPS 180-4) of ``data`` as 64 lowercase hex digits.

    Pure Python: 0.1-0.2 ms per 64-byte block on a 2-vCPU x86-64 host
    (CPython 3.11), so a shipped config (96-586 canonical bytes) takes
    0.2-2 ms and a 10 kB one would take 17-35 ms. The rotations leave bits
    above bit 31, which reach only sums that are masked to 32 bits.
    """
    data += b"\x80" + b"\0" * ((55 - len(data)) % 64) + (8 * len(data)).to_bytes(8, "big")
    state = _SHA_H
    for start in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big") for i in range(start, start + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, h = state
        for k, wt in zip(_SHA_K, w):
            s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
            t1 = h + s1 + (e & f ^ ~e & g) + k + wt
            s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
            t2 = s0 + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, h = (t1 + t2) & _MASK32, a, b, c, (d + t1) & _MASK32, e, f, g
        state = tuple((x + y) & _MASK32 for x, y in zip(state, (a, b, c, d, e, f, g, h)))
    return "".join(f"{x:08x}" for x in state)


def config_hash(cfg: dict) -> str:
    """SHA-256 of the config's canonical JSON: sorted keys, no spaces."""
    return _digest(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode())


class _LongInteger:
    """A JSON integer literal with more digits than ``int`` parses (see
    ``sys.get_int_max_str_digits``). No key's parser takes one, so it is
    refused under its key path; no such integer fits a float or an integer key."""

    def __init__(self, digits: int):
        self.digits = digits

    def __repr__(self) -> str:
        return f"an integer of {self.digits} digits"


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:  # over the interpreter's digit limit
        return _LongInteger(len(text.lstrip("-")))


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return _Reader(json.load(fh, parse_int=_json_int)).obj


def _metadata(read: _Reader, verdict: dict) -> dict:
    return {
        "config_sha256": config_hash(read.obj),
        "seed": read.seed,
        "version": __version__,
        "verdict": verdict,
    }


class _Reader:
    """One JSON object of a config. ``read(key, parse, default)`` is
    ``parse(value, key_path)`` of the key's value, else of ``default``
    (``None``: the key is optional). ``done()`` rejects the first key that
    nothing read; a nested object arrives as a reader, done once parsed."""

    def __init__(self, obj, path: str = ""):
        if not isinstance(obj, dict):
            got = obj if isinstance(obj, _LongInteger) else type(obj).__name__
            raise ShieldlabError(f"{'' if path else 'config '}must be a JSON object, "
                                 f"got {got}", key=path or None)
        self.obj, self.path, self._read = obj, path, set()

    def __call__(self, key: str, parse, default=...):
        path = f"{self.path}.{key}".lstrip(".")
        value = self.obj.get(key, default)
        if value is ...:
            raise ShieldlabError("is missing", key=path)
        self._read.add(key)
        if not isinstance(value, dict):
            return None if value is None and default is None else parse(value, path)
        nested = _Reader(value, path)
        parsed = parse(nested, path)
        nested.done()
        return parsed

    def done(self) -> None:
        for key in self.obj:
            if key not in self._read:
                path = f"{self.path}.{key}".lstrip(".")
                raise ShieldlabError("is unknown or does not apply", key=path)


def _config(cfg, kind: str) -> _Reader:
    """The reader of a runner's config, holding the ``seed`` every runner accepts."""
    read = _Reader(cfg)
    written = read("kind", _text, kind)
    if written != kind:
        raise ShieldlabError(f"config is for {written!r}, not {kind!r}", key="kind")
    read.seed = read("seed", _value(int, "an integer in 0..2**64 - 1",  # one key word
                                    lambda v: 0 <= v <= _WORD), None)
    return read


def _keyed(path: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, its errors re-raised under the config key ``path``."""
    try:
        return call(*args, **kwargs)
    except ShieldlabError as exc:
        raise ShieldlabError(exc.message, key=f"{path}.{exc.key}" if exc.key else path) from exc


def _value(kinds, what: str, ok=lambda v: True, cast=lambda v, path: v):
    """Parser of a JSON value of type ``kinds`` (a bool is none) that ``ok`` accepts;
    an integer too large for the float that ``ok`` or ``cast`` makes is refused."""
    def parse(value, path):
        try:
            if isinstance(value, bool) or not isinstance(value, kinds) or not ok(value):
                raise ShieldlabError(f"must be {what}, got {getattr(value, 'obj', value)!r}",
                                     key=path)
            return cast(value, path)
        except OverflowError:
            raise ShieldlabError(f"must be {what}, got an integer too large for a float",
                                 key=path) from None
    return parse


def _list(item, least: int = 1):
    """A JSON list, entry k parsed by ``item``; a run without data must not pass."""
    return _value((list, tuple), f"a list of {least} or more entries",
                  lambda v: len(v) >= least,
                  lambda v, path: [item(x, f"{path}[{k}]") for k, x in enumerate(v)])


def _site(n: int, base: int = 0):
    """A site number counted from ``base``, parsed 0-based."""
    return _value(int, f"a site in {base}..{n - 1 + base}", lambda v: 0 <= v - base < n,
                  lambda v, path: v - base)


_text = _value(str, "a string")
_count = _value(int, "an integer >= 1", lambda v: v >= 1)
_n_sites = _value(int, "an integer >= 1", lambda v: v >= 1,  # and within the dense cap
                  lambda v, path: v if v <= DENSE_SITE_CAP else _keyed(path, check_dense_cap, v))
_real = _value((int, float), "a finite number", math.isfinite, lambda v, path: float(v))
_pair = _value((list, tuple), "a [low, high] pair", lambda v: len(v) == 2,
               lambda v, path: (_real(v[0], f"{path}[0]"), _real(v[1], f"{path}[1]")))


def _range(value, path) -> tuple[float, float]:
    """A [low, high] pair whose draws ``low + (high - low) * u`` are finite numbers."""
    lo, hi = _pair(value, path)
    if lo > hi:
        raise ShieldlabError(f"has low {lo!r} above high {hi!r}", key=path)
    if not math.isfinite(hi - lo):
        raise ShieldlabError(f"has a width high - low that overflows, from {lo!r} to {hi!r}",
                             key=path)
    return lo, hi


_beta = _value((int, float, str), 'a number >= 0 or "ground"',
               lambda v: v == "ground" if isinstance(v, str) else v >= 0,
               lambda v, path: math.inf if isinstance(v, str) else float(v))


def _grid(value, path) -> list[float]:
    """A grid given either as a list or as {"start", "stop", "step"}."""
    if isinstance(value, _Reader):
        start, stop = value("start", _real), value("stop", _real)
        step = value("step", _value((int, float), "a finite number > 0",
                                    lambda v: 0 < float(v) < math.inf))
        steps = (stop - start) / step
        if not math.isfinite(steps):
            raise ShieldlabError(f"spans {steps} steps: the grid has no finite point count",
                                 key=path)
        count = int(math.floor(steps + 1e-9)) + 1
        value = [start + k * step for k in range(count)]
    return _list(_real)(value, path)


def _lattice(read, path: str) -> tuple[LatticeSpec, int]:
    """A lattice and the ``index_base`` its split and site keys count from.

    Keys: ``n_sites``, ``edges`` as ``[[i, j, J], ...]``, ``h``, optional
    ``g`` (default zeros) and optional ``index_base``. JSON payloads may be
    1-indexed via ``index_base`` (0 or 1, default 1), which is translated on
    load; the library counts sites from 0.
    """
    read = read if isinstance(read, _Reader) else _Reader(read, path)  # raises
    base = read("index_base", _value(int, "0 or 1", lambda v: v in (0, 1)), 1)
    n = read("n_sites", _n_sites)
    site = _site(n, base)
    edge = _value((list, tuple), "an [i, j, J] triple", lambda v: len(v) == 3,
                  lambda v, p: (site(v[0], p), site(v[1], p), _real(v[2], p)))
    h, g = read("h", _list(_real, 0)), read("g", _list(_real, 0), None)
    return _keyed(path, validate_lattice, n, read("edges", _list(edge, 0)), h, g), base


def _split(lat: LatticeSpec, base: int):
    """Parser of a region split of ``lat``, counted from ``base``."""
    def parse(read, path: str):
        read = read if isinstance(read, _Reader) else _Reader(read, path)  # raises
        X, Y = (read(key, _list(_site(lat.n_sites, base), 0)) for key in "XY")
        return _keyed(path, validate_split, lat, X, Y)
    return parse


# ---------------------------------------------------------------------------
# verify-shielding
# ---------------------------------------------------------------------------

def run_verify_shielding(cfg: dict) -> ResultTable:
    """Randomized single-site-interface shielding trials.

    Keys (defaults): ``lattice``, ``split``, ``betas`` ([0.1, 1, 5]),
    ``trials`` (50), ``seed`` (0), ``J_range`` ([-2, 2]), ``h_range`` ([0, 1]),
    ``g_range`` (none) and ``interface_field`` (0). Per trial k (generator key
    index k+1), the X-side parameters are redrawn — first couplings of X-side
    edges in canonical edge order from ``J_range``, then x-fields on the X
    bulk in ascending site order from ``h_range``, then y-fields likewise if
    ``g_range`` is given — while the Y side stays fixed. Columns report the
    trace distance between the reduced Gibbs state on Y and the shielded
    Gibbs state, plus the drift of the reduced state from trial 0.

    The lattice must carry zero fields on S, like every split's lattice. A
    nonzero ``interface_field`` then sets h on S after the split is checked,
    breaking the zero-field precondition as a control; the verdict flags the
    expected failure. The interface must be one site, and a run that could
    not fail is refused: a Y that is all interface, an X that is all
    interface without an ``interface_field`` (both keyed ``split``) and no
    beta above 0 (keyed ``betas``).
    """
    read = _config(cfg, "verify-shielding")
    interface_field = read("interface_field", _real, 0.0)
    lat, base = read("lattice", _lattice)
    split = read("split", _split(lat, base))
    betas = read("betas", _list(_beta), [0.1, 1.0, 5.0])
    trials = read("trials", _count, 50)
    j_lo, j_hi = read("J_range", _range, [-2.0, 2.0])
    h_lo, h_hi = read("h_range", _range, [0.0, 1.0])
    g_range = read("g_range", _range, None)
    read.done()
    if len(split.S) != 1:
        raise ShieldlabError(
            f"verify-shielding requires a single-site interface, got |S|={len(split.S)}",
            key="split")
    if not split.B:
        raise ShieldlabError("Y is all interface: the run would have no data", key="split")
    if not split.A and interface_field == 0.0:
        raise ShieldlabError("X is all interface, so no trial redraws anything: "
                             "the run would have no data", key="split")
    if not any(beta > 0 for beta in betas):
        raise ShieldlabError("holds no beta above 0, where every state is maximally "
                             "mixed: the run would have no data", key="betas")
    if interface_field != 0.0:
        h = list(lat.h)
        for l in split.S:
            h[l] = interface_field
        lat = update_parameters(lat, h=h)

    x_edges = [(i, j) for (i, j, _) in lat.edges
               if {i, j} <= split.X and not {i, j} <= split.S]
    x_bulk = sorted(split.A)
    # trials redraw only the X side, so the shielded states on Y are read once
    parts = split_hamiltonian(build_hamiltonian(lat), split)
    y_sites = parts.y_sites
    rhs = _states(parts.h_shielded, betas, range(len(y_sites)), y_sites)

    table = ResultTable(columns=("trial", "beta", "distance", "rho_variation"))
    first_lhs: dict[float, DensityMatrix] = {}  # trial 0's state at each beta
    max_distance = 0.0
    max_variation = 0.0
    for k in range(trials):
        rng = point_rng(read.seed or 0, k + 1)
        j_new = {pair: rng.uniform(j_lo, j_hi) for pair in x_edges}
        h_new = list(lat.h)
        for i in x_bulk:
            h_new[i] = rng.uniform(h_lo, h_hi)
        g_new = list(lat.g)
        if g_range is not None:
            for i in x_bulk:
                g_new[i] = rng.uniform(*g_range)
        H = build_hamiltonian(update_parameters(lat, h=h_new, g=g_new, J_by_edge=j_new))
        for beta, lhs, shielded in zip(betas, _states(H, betas, y_sites, y_sites), rhs):
            distance = trace_distance(lhs, shielded)
            variation = trace_distance(lhs, first_lhs.setdefault(beta, lhs))
            max_distance = max(max_distance, distance)
            max_variation = max(max_variation, variation)
            table.append(k, beta, distance, variation)

    status = classify_distance(max_distance)
    verdict = {
        "status": status,
        "max_distance": max_distance,
        "max_rho_variation": max_variation,
    }
    if interface_field != 0.0:
        verdict["note"] = "shielding violated (expected: precondition broken)" \
            if status == "fail" else "control did not violate shielding"
    table.metadata = _metadata(read, verdict)
    return table


# ---------------------------------------------------------------------------
# counterexample (two-site interface diamond)
# ---------------------------------------------------------------------------

def run_counterexample(cfg: dict) -> ResultTable:
    """Sweep the near-site field of the diamond and compare series vs. dense.

    Keys (defaults): ``h4`` (1), ``betas`` ([1, 4, 7]; "ground" is beta =
    inf, written ``inf``) and ``h1_grid`` ({"start": 0, "stop": 2, "step":
    0.05}); ``series_tol``, a finite number, is accepted and ignored, since
    the series are summed in closed form. For each beta and h1 the far
    site's X magnetization is computed twice: from the coefficient series
    and from exact diagonalization of the 16-dimensional Gibbs or ground
    state. The verdict checks their agreement; per beta, the sweep's spread
    (the finite-temperature shielding failure, 0 at beta = inf) and the
    largest distance of a row from the series' zero-temperature value
    h4/√(4 + h4²) go to the metadata.
    """
    read = _config(cfg, "counterexample")
    h4 = read("h4", _real, 1.0)
    betas = read("betas", _list(_beta), [1.0, 4.0, 7.0])
    h1_grid = read("h1_grid", _grid, {"start": 0.0, "stop": 2.0, "step": 0.05})
    read("series_tol", _real, 0.0)  # ignored: the sums are closed
    read.done()

    obs = PauliString.single(4, 3, "X")
    table = ResultTable(columns=(
        "beta", "h1", "magnetization_series", "magnetization_ED", "abs_delta"
    ))
    max_delta = 0.0
    spread: dict[str, float] = {}
    plateau_gap: dict[str, float] = {}
    plateau = fourspin_magnetization(math.inf, 0.0, h4)
    by_beta = [[fourspin_magnetization(beta, h1, h4) for h1 in h1_grid] for beta in betas]
    # one Hamiltonian per h1, solved once and read in one pass for every beta
    dense = [[expectation(rho, obs)
              for rho in _states(build_hamiltonian(make_diamond(h1, h4)), betas,
                                 range(4), range(4))]
             for h1 in h1_grid]
    for k, (beta, values) in enumerate(zip(betas, by_beta)):
        for h1, series, at_h1 in zip(h1_grid, values, dense):
            delta = abs(series - at_h1[k])
            max_delta = max(max_delta, delta)
            table.append(beta, h1, series, at_h1[k], delta)
        spread[repr(beta)] = max(values) - min(values)
        plateau_gap[repr(beta)] = max(abs(v - plateau) for v in values)
    verdict = {
        "status": "pass" if max_delta < ORACLE_AGREEMENT_TOL else "fail",
        "max_abs_delta": max_delta,
        "oracle_tol": ORACLE_AGREEMENT_TOL,
        "spread_by_beta": spread,
        "plateau_gap_by_beta": plateau_gap,
    }
    table.metadata = _metadata(read, verdict)
    return table


# ---------------------------------------------------------------------------
# conjecture (ground-state shielding with wide interfaces)
# ---------------------------------------------------------------------------

def run_conjecture(cfg: dict) -> ResultTable:
    """Ground-state shielding trials across a zero-field interface of any size.

    Keys (defaults): ``lattice``, ``split``, ``beta`` ("ground": the ground-
    space mixture), ``trials`` (20), ``seed`` (0), ``a_field_range`` and
    ``b_field_range`` (both [0, 1]) and ``offset_range`` ([0, 3]). The A-side
    (X bulk) fields are drawn once, generator index 0, ascending. Per trial k
    (index k+1) the B-side fields are redrawn — first the homogeneous offset,
    then one draw per B site ascending, summed. Rows record ⟨X⟩ and ⟨Z⟩ of
    every A site in the reduced state on A at ``beta``; ground runs add rows
    per conserved interface-Z sector, each read from that sector's piece. The
    verdict classifies the worst across-trial variation of the mixed-state
    rows, so a run whose rows cannot vary is refused: one trial, an X or a Y
    that is all interface (keyed ``split``), B fields that every trial draws
    alike (keyed ``b_field_range``) and ``beta`` 0.
    """
    read = _config(cfg, "conjecture")
    lat, base = read("lattice", _lattice)
    split = read("split", _split(lat, base))
    beta = read("beta", _beta, "ground")
    trials = read("trials", _count, 20)
    a_lo, a_hi = read("a_field_range", _range, [0.0, 1.0])
    b_lo, b_hi = read("b_field_range", _range, [0.0, 1.0])
    off_lo, off_hi = read("offset_range", _range, [0.0, 3.0])
    read.done()

    for bulk, side in ((split.A, "X"), (split.B, "Y")):
        if not bulk:
            raise ShieldlabError(f"{side} is all interface: the run would have no data",
                                 key="split")
    if trials == 1:
        raise ShieldlabError("is 1, and one trial cannot vary: the run would have no data",
                             key="trials")
    if b_lo == b_hi and off_lo == off_hi:
        raise ShieldlabError("and offset_range are single points, so every trial draws "
                             "the same B fields: the run would have no data",
                             key="b_field_range")
    if beta == 0:
        raise ShieldlabError("is 0, where the state is maximally mixed whatever the B "
                             "fields: the run would have no data", key="beta")
    a_sites = sorted(split.A)
    b_sites = sorted(split.B)
    rng0 = point_rng(read.seed or 0, 0)
    h_base = list(lat.h)
    for i in a_sites:
        h_base[i] = rng0.uniform(a_lo, a_hi)

    table = ResultTable(columns=("trial", "sector", "site", "observable", "value"))
    mix_values: dict[tuple[int, str], list[float]] = {}
    for k in range(trials):
        rng = point_rng(read.seed or 0, k + 1)
        offset = rng.uniform(off_lo, off_hi)
        h = list(h_base)
        for i in b_sites:
            h[i] = rng.uniform(b_lo, b_hi) + offset
        H = build_hamiltonian(update_parameters(lat, h=h))
        by = sorted(split.S) if math.isinf(beta) else []
        (pieces,) = _reduced_states(H, [beta], a_sites, by)
        states = [("mix", sum(pieces))]
        if by:
            for signs, piece in zip(product((1, -1), repeat=len(by)), pieces):
                weight = float(np.trace(piece).real)
                if weight >= 1e-12:
                    label = "".join("+" if s == 1 else "-" for s in signs)
                    states.append((label, piece / weight))
        for label, matrix in states:
            rho = DensityMatrix(matrix, a_sites)
            for pos, i in enumerate(a_sites):
                for name, letter in (("x", "X"), ("z", "Z")):
                    value = expectation(rho, PauliString.single(len(a_sites), pos, letter))
                    table.append(k, label, i, name, value)
                    if label == "mix":
                        mix_values.setdefault((i, name), []).append(value)

    max_variation = max(max(vals) - min(vals) for vals in mix_values.values())
    table.metadata = _metadata(read, {
        "status": _classify(max_variation, CONJECTURE_PASS_TOL),
        "max_variation": max_variation,
        "beta": "inf" if math.isinf(beta) else beta,
    })
    return table


# ---------------------------------------------------------------------------
# quench
# ---------------------------------------------------------------------------

def _observables(n: int):
    """"x" or "z" for that Pauli on every site, else a list of Pauli strings."""
    def word(text, path) -> PauliString:
        return _keyed(path, PauliString.from_text, _text(text, path), n)

    def parse(value, path) -> tuple[PauliString, ...]:
        if value in ("x", "z"):
            return tuple(PauliString.single(n, i, value.upper()) for i in range(n))
        return tuple(_list(word)(value, path))
    return parse


def run_quench_experiment(cfg: dict) -> ResultTable:
    """Ground state of the pre lattice, evolved under the post lattice.

    Keys (defaults): ``pre``; ``post``, or else ``quench_site`` (in the pre
    lattice's ``index_base``) and ``quench_h`` patching the pre lattice;
    ``times`` ({"start": 0, "stop": 6, "step": 0.05}); ``observables`` ("x",
    "z", or Pauli strings such as "+ X0 Z1" numbered from 0); ``split``
    (none). With a split the verdict compares the time variation of
    observables whose support meets the shielded bulk (must stay below 1e-9)
    to those whose support meets the driven bulk, reading each from its
    ``site`` column; none may then touch both bulks, one must meet the
    shielded bulk and ``times`` must hold two distinct times, or the verdict
    would pass on no data. The quench must then change the X side and only
    the X side: a post equal to the pre, or one that changes a field on
    S ∪ B or the coupling of an edge with an end in B, is refused under
    ``quench_site`` (or ``post``). With or without a split, two observables
    may not share a site column, whose rows would share their (t, site) keys
    (:class:`QuenchProtocol` refuses them). The sidecar's ``solver`` names
    the path :func:`run_quench` took, ``"free-fermion"`` or ``"blocked"``.
    """
    read = _config(cfg, "quench")
    pre, base = read("pre", _lattice)
    post, _ = read("post", _lattice, None) or (None, None)
    change = "post"  # the key that names the quench
    if post is None:
        change = "quench_site"
        h = list(pre.h)
        h[read("quench_site", _site(pre.n_sites, base))] = read("quench_h", _real)
        post = update_parameters(pre, h=h)
    times = read("times", _grid, {"start": 0.0, "stop": 6.0, "step": 0.05})
    observables = read("observables", _observables(pre.n_sites), "x")
    protocol = QuenchProtocol(pre=pre, post=post, times=tuple(times), observables=observables)
    split = read("split", _split(pre, base), None)
    read.done()
    if split is not None:
        if post == pre:
            raise ShieldlabError("leaves the pre lattice unchanged, so nothing is driven: "
                                 "the run would have no data", key=change)
        off_x = [f"the field on site {i + base}" for i in sorted(split.S | split.B)
                if (pre.h[i], pre.g[i]) != (post.h[i], post.g[i])]
        off_x += [f"the coupling of edge ({i + base}, {j + base})"
                 for (i, j, J), (_, _, K) in zip(pre.edges, post.edges)
                 if J != K and {i, j} & split.B]
        if off_x:
            raise ShieldlabError(
                f"changes {off_x[0]}, which is not on the X side of the split (fields on "
                "A, couplings within X), so the verdict would not test shielding", key=change)
        shielded_sites, driven_sites = set(), set()
        for k, obs in enumerate(observables):
            sup = set(obs.support())
            if sup & split.A and sup & split.B:
                raise ShieldlabError(
                    "touches both bulks of the split, so the verdict could not "
                    "file it on one side", key=f"observables[{k}]")
            site = _observable_site(obs)
            if sup & split.B:
                shielded_sites.add(site)
            if sup & split.A:
                driven_sites.add(site)
        if not shielded_sites:
            raise ShieldlabError("none lies on the shielded bulk of the split: "
                                 "the run would have no data", key="observables")
        if len(set(times)) < 2:
            raise ShieldlabError("holds a single time, so nothing can vary: "
                                 "the run would have no data", key="times")
    table = run_quench(protocol)

    verdict: dict = {"status": "pass"}
    if split is not None:
        per_site: dict[int, list[float]] = {}
        for _, site, value in table.rows:
            per_site.setdefault(site, []).append(value)
        variation = {site: max(v) - min(v) for site, v in per_site.items()}
        shielded = max((variation[s] for s in shielded_sites), default=0.0)
        driven = max((variation[s] for s in driven_sites), default=0.0)
        verdict = {
            "status": "pass" if shielded < QUENCH_SHIELDED_TOL else "fail",
            "max_variation_shielded": shielded,
            "max_variation_driven": driven,
            "shielded_tol": QUENCH_SHIELDED_TOL,
        }
    table.metadata = {**_metadata(read, verdict), "solver": table.metadata["solver"]}
    return table


# ---------------------------------------------------------------------------
# dual-check
# ---------------------------------------------------------------------------

def run_dual_check(cfg: dict) -> ResultTable:
    """Dual rewriting of random open chains.

    Keys (defaults): ``n_sites`` (6), ``trials`` (50), ``seed`` (0),
    ``J_range`` ([-2, 2]), ``h_range`` ([-1, 1]) and ``zero_field_site``
    (none; numbered from 0), which pins that field to zero so the dual graph
    splits in two. Per trial k (generator index k), couplings then fields
    are drawn in ascending order. Columns report the max-entry difference of
    the direct and dual-variable Hamiltonians, read per flip mask without
    either dense matrix, the dual operator-algebra residual and the number
    of dual components.
    """
    table = ResultTable(columns=(
        "trial", "n_sites", "hamiltonian_residual", "algebra_residual",
        "n_dual_components",
    ))
    read = _config(cfg, "dual-check")
    n = read("n_sites", _n_sites, 6)
    trials = read("trials", _count, 50)
    j_lo, j_hi = read("J_range", _range, [-2.0, 2.0])
    h_lo, h_hi = read("h_range", _range, [-1.0, 1.0])
    zero_site = read("zero_field_site", _site(n), None)
    read.done()

    worst_h = 0.0
    worst_alg = 0.0
    for k in range(trials):
        rng = point_rng(read.seed or 0, k)
        J = [rng.uniform(j_lo, j_hi) for _ in range(n - 1)]
        h = [rng.uniform(h_lo, h_hi) for _ in range(n)]
        if zero_site is not None:
            h[zero_site] = 0.0
        lat = make_chain(n, J, h)
        dc = dual_chain(lat)
        direct = _mask_sums(lat.n_sites, [(c, p.xzk) for c, p in build_hamiltonian(lat).terms])
        dual = _mask_sums(lat.n_sites, dc._words())
        residual = max((float(np.abs(direct.get(x, 0.0) - dual.get(x, 0.0)).max())
                        for x in direct.keys() | dual.keys()), default=0.0)
        algebra = dual_algebra_residual(dc)
        worst_h = max(worst_h, residual)
        worst_alg = max(worst_alg, algebra)
        table.append(k, lat.n_sites, residual, algebra, len(dc.dual_components()))
    table.metadata = _metadata(read, {
        "status": "pass" if max(worst_h, worst_alg) < DUAL_RESIDUAL_TOL else "fail",
        "max_hamiltonian_residual": worst_h,
        "max_algebra_residual": worst_alg,
        "tol": DUAL_RESIDUAL_TOL,
    })
    return table


RUNNERS = {
    "verify-shielding": run_verify_shielding,
    "counterexample": run_counterexample,
    "conjecture": run_conjecture,
    "quench": run_quench_experiment,
    "dual-check": run_dual_check,
}
