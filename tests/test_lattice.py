import re

import numpy as np
import pytest

from shieldlab import (
    ShieldlabError,
    make_chain,
    make_diamond,
    make_triangular_patch,
    update_parameters,
    validate_lattice,
    validate_split,
)
from shieldlab.experiments import _Reader, _lattice, _split


def read_lattice(obj):
    """The lattice of a config's ``lattice`` object, and its index base."""
    return _Reader({"lattice": obj})("lattice", _lattice)


def read_split(obj, lat, base):
    """The region split of a config's ``split`` object, counted from ``base``."""
    return _Reader({"split": obj})("split", _split(lat, base))


class TestValidateLattice:
    def test_well_formed_chain(self):
        lat = validate_lattice(3, [(0, 1, 1.0), (1, 2, 1.0)], [0.5, 0.0, 0.5])
        assert lat.n_sites == 3
        assert lat.g == (0.0, 0.0, 0.0)

    def test_self_edge(self):
        with pytest.raises(ShieldlabError, match=r"^edges\[0\]: edge \(2, 2\) joins a site"):
            validate_lattice(3, [(2, 2, 1.0)], [0, 0, 0])

    def test_duplicate_edge_either_orientation(self):
        with pytest.raises(ShieldlabError, match=r"^edges\[1\]: duplicate edge \(0, 1\)"):
            validate_lattice(3, [(0, 1, 1.0), (1, 0, 2.0)], [0, 0, 0])

    def test_index_out_of_range(self):
        with pytest.raises(ShieldlabError, match=r"^edges\[0\]: edge \(0, 3\) outside 0\.\.2"):
            validate_lattice(3, [(0, 3, 1.0)], [0, 0, 0])

    def test_non_finite(self):
        with pytest.raises(ShieldlabError, match=r"^edges\[0\]: coupling .* not finite"):
            validate_lattice(2, [(0, 1, float("nan"))], [0, 0])
        with pytest.raises(ShieldlabError, match="^h: has a non-finite entry"):
            validate_lattice(2, [(0, 1, 1.0)], [float("inf"), 0])

    def test_field_length(self):
        with pytest.raises(ShieldlabError, match="^h: has 2 entries, expected 3"):
            validate_lattice(3, [], [0, 0])

    @pytest.mark.parametrize("n_sites", [0, -2])
    def test_non_positive_size(self, n_sites):
        with pytest.raises(ShieldlabError, match=f"^n_sites: must be positive, got {n_sites}"):
            validate_lattice(n_sites, [], [])

    def test_edges_canonicalized(self):
        lat = validate_lattice(4, [(3, 2, 1.0), (1, 0, 2.0)], [0] * 4)
        assert lat.edges == ((0, 1, 2.0), (2, 3, 1.0))


class TestMakeChain:
    def test_two_sites(self):
        lat = make_chain(2, [1.0], [0.0, 0.0])
        assert lat.edges == ((0, 1, 1.0),)
        assert lat.n_sites == 2

    def test_sixty_sites_with_one_null_field(self):
        # pre-quench chain: unit couplings, field 1/2 everywhere but one site
        h = [0.5] * 60
        h[14] = 0.0
        lat = make_chain(60, [1.0] * 59, h)
        assert lat.n_sites == 60
        assert lat.h[14] == 0.0
        assert len(lat.edges) == 59

    def test_length_mismatch(self):
        with pytest.raises(ShieldlabError, match="needs 2 couplings and 3 fields"):
            make_chain(3, [1.0], [0, 0, 0])


class TestDiamond:
    def test_geometry(self):
        lat = make_diamond(0.7, 1.3)
        assert [(i, j) for (i, j, _) in lat.edges] == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert lat.h == (0.7, 0.0, 0.0, 1.3)

    def test_natural_split_is_valid(self):
        split = validate_split(make_diamond(1.0, 1.0), {0, 1, 2}, {1, 2, 3})
        assert split.S == {1, 2}
        assert split.A == {0}
        assert split.B == {3}


class TestValidateSplit:
    def test_minimal_chain_split(self):
        lat = make_chain(3, [1.0, 1.0], [0.4, 0.0, 0.9])
        split = validate_split(lat, {0, 1}, {1, 2})
        assert split.S == {1}

    def test_nonzero_interface_field(self):
        lat = make_chain(3, [1.0, 1.0], [0.4, 0.2, 0.9])
        with pytest.raises(ShieldlabError, match="^interface site 1 carries field h=0.2"):
            validate_split(lat, {0, 1}, {1, 2})
        with pytest.raises(ShieldlabError, match="^interface site 1 carries field h=0.0, g=0.1"):
            validate_split(update_parameters(lat, h=[0.4, 0.0, 0.9], g=[0.0, 0.1, 0.0]),
                           {0, 1}, {1, 2})
        # a split holds no fields: a control checks its split on the
        # zero-field lattice and then sets the field on S
        split = validate_split(update_parameters(lat, h=[0.4, 0.0, 0.9]), {0, 1}, {1, 2})
        assert split.S == {1}

    def test_not_a_cover(self):
        lat = make_chain(4, [1, 1, 1], [0, 0, 0, 0])
        with pytest.raises(ShieldlabError, match=r"^sites \[3\] belong to neither region"):
            validate_split(lat, {0, 1}, {1, 2})

    def test_cross_edge(self):
        lat = make_chain(4, [1, 1, 1], [0, 0, 0, 0])
        with pytest.raises(ShieldlabError, match=r"^edge \(1, 2\) crosses between the two bulks"):
            validate_split(lat, {0, 1}, {2, 3})

    def test_site_out_of_range(self):
        # keyed by the set that holds the site, in either order
        lat = make_chain(3, [1, 1], [0.5, 0, 0.5])
        for x, y, key in (({0, 1, 7}, {1, 2}, "X"), ({1, 2}, {0, 1, 7}, "Y")):
            with pytest.raises(ShieldlabError, match=rf"^{key}: site 7 outside 0\.\.2") as err:
                validate_split(lat, x, y)
            assert err.value.key == key

    def test_empty_set(self):
        # keyed by the set that is empty, in either order
        lat = make_chain(3, [1, 1], [0.5, 0, 0.5])
        for x, y, key in ((set(), {0, 1, 2}, "X"), ({0, 1, 2}, [], "Y")):
            with pytest.raises(ShieldlabError, match=rf"^{key}: holds no site$") as err:
                validate_split(lat, x, y)
            assert err.value.key == key

    def test_empty_interface_allowed_for_disconnected_halves(self):
        lat = validate_lattice(4, [(0, 1, 1.0), (2, 3, 1.0)], [0.1] * 4)
        split = validate_split(lat, {0, 1}, {2, 3})
        assert split.S == frozenset()

    def test_symmetric_in_x_and_y(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            L = int(rng.integers(1, n - 1))
            h = rng.uniform(0, 1, size=n)
            h[L] = 0.0
            lat = make_chain(n, rng.uniform(-2, 2, size=n - 1), h)
            a = validate_split(lat, range(L + 1), range(L, n))
            b = validate_split(lat, range(L, n), range(L + 1))
            assert a.S == b.S

    def test_rejection_is_symmetric_too(self):
        lat = make_chain(4, [1, 1, 1], [0.2, 0.3, 0.0, 0.4])
        for x, y in (({0, 1}, {1, 2, 3}), ({1, 2, 3}, {0, 1})):
            with pytest.raises(ShieldlabError, match="^interface site 1 carries field"):
                validate_split(lat, x, y)

    def test_accepted_split_has_no_cross_edge_by_rescan(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            L = int(rng.integers(1, n - 1))
            h = rng.uniform(0, 1, size=n)
            h[L] = 0.0
            lat = make_chain(n, rng.uniform(-2, 2, size=n - 1), h)
            split = validate_split(lat, range(L + 1), range(L, n))
            for (i, j, _) in lat.edges:
                crosses = ({i, j} & split.A) and ({i, j} & split.B)
                assert not crosses


class TestJson:
    def test_one_indexed_by_default(self):
        lat, base = read_lattice({
            "n_sites": 3,
            "edges": [[1, 2, 1.0], [2, 3, 0.5]],
            "h": [0.3, 0.0, 0.7],
        })
        assert base == 1
        assert lat.edges == ((0, 1, 1.0), (1, 2, 0.5))
        split = read_split({"X": [1, 2], "Y": [2, 3]}, lat, base)
        assert split.S == {1}

    def test_zero_indexed(self):
        lat, base = read_lattice({
            "n_sites": 2,
            "index_base": 0,
            "edges": [[0, 1, 2.0]],
            "h": [0.0, 0.0],
            "g": [0.1, 0.2],
        })
        assert base == 0
        assert lat.edges == ((0, 1, 2.0),)
        assert lat.g == (0.1, 0.2)

    def test_bad_index_base(self):
        with pytest.raises(ShieldlabError, match=r"^lattice\.index_base: must be 0 or 1, got 2"):
            read_lattice({"n_sites": 2, "index_base": 2, "edges": [], "h": [0, 0]})

    @pytest.mark.parametrize("extra, key", [
        ({"gg": [0.0, 0.0]}, r"^lattice\.gg: is unknown"),
        ({"n_sites": 2.0}, r"lattice\.n_sites"),
        ({"edges": [[1, 3, 1.0]]}, r"lattice\.edges\[0\]"),
        ({"h": [0.0, "0.5"]}, r"lattice\.h\[1\]"),
    ])
    def test_bad_payload_names_the_key(self, extra, key):
        obj = {"n_sites": 2, "edges": [[1, 2, 1.0]], "h": [0.0, 0.5], **extra}
        with pytest.raises(ShieldlabError, match=key):
            read_lattice(obj)

    def test_split_rejects_unknown_keys(self):
        lat, base = read_lattice({"n_sites": 2, "edges": [[1, 2, 1.0]], "h": [0.0, 0.5]})
        with pytest.raises(ShieldlabError, match=r"^split\.Z: is unknown"):
            read_split({"X": [1], "Y": [1, 2], "Z": []}, lat, base)


class TestTriangularPatch:
    def test_rows_and_edges(self):
        lat, rows = make_triangular_patch([1, 2, 3, 4])
        assert rows == [[0], [1, 2], [3, 4, 5], [6, 7, 8, 9]]
        assert lat.n_sites == 10
        # 1+2+3 in-row edges plus 2*(1+2+3) between-row edges
        assert len(lat.edges) == 18
        assert all(h == 0.0 for h in lat.h)

    def test_interface_rows_shield_geometrically(self):
        lat, rows = make_triangular_patch([2, 3, 4])
        split = validate_split(lat, rows[0] + rows[1], rows[1] + rows[2])
        assert split.S == frozenset(rows[1])


def test_update_parameters():
    lat = make_chain(3, [1.0, 2.0], [0.1, 0.0, 0.3])
    new = update_parameters(lat, h=[0.5, 0.0, 0.5], J_by_edge={(1, 0): 9.0})
    assert new.h == (0.5, 0.0, 0.5)
    assert new.edges == ((0, 1, 9.0), (1, 2, 2.0))
    assert lat.h == (0.1, 0.0, 0.3)  # original untouched
    # a pair that is no edge would change nothing: refused, first stray named
    for stray, named in (({(0, 2): 5.0}, "(0, 2)"), ({(1, 2): 1.0, (1, 1): 5.0}, "(1, 1)"),
                         ({(2, 0): 5.0, (0, 1): 1.0}, "(2, 0)")):
        message = rf"^J_by_edge: {re.escape(named)} is not an edge$"
        with pytest.raises(ShieldlabError, match=message):
            update_parameters(lat, J_by_edge=stray)
