import math

import numpy as np
import pytest

from shieldlab import (
    PauliString,
    QuenchProtocol,
    ShieldlabError,
    build_hamiltonian,
    make_chain,
    make_diamond,
    run_quench,
    split_hamiltonian,
    update_parameters,
    validate_lattice,
    validate_split,
)

from helpers import kron_word
from test_thermal import dense_ground, dense_spectrum, oracle_lattices, zero_field_lattices


def x_side_posts(lat, split, rng):
    """The three post lattices of the dynamics identity: the full lattice,
    "H_Y alone" (the X-bulk fields and the X-side couplings set to 0) and the
    X side redrawn from ``rng`` (couplings from [-2, 2], then x fields from
    [0, 1] and no y fields)."""
    x_edges = [(i, j) for (i, j, _) in lat.edges
               if {i, j} <= split.X and not {i, j} <= split.S]
    bulk = sorted(split.A)

    def x_side(couplings, fields):
        h, g = list(lat.h), list(lat.g)
        for i, value in zip(bulk, fields):
            h[i], g[i] = value, 0.0
        return update_parameters(lat, h=h, g=g, J_by_edge=dict(zip(x_edges, couplings)))

    alone = x_side([0.0] * len(x_edges), [0.0] * len(bulk))
    redrawn = x_side(rng.uniform(-2, 2, len(x_edges)), rng.uniform(0, 1, len(bulk)))
    return lat, alone, redrawn


def tilted(lat, rng):
    """``lat`` with y fields drawn from [0.3, 1] on every site, the interface
    included: a pre whose ground mixture conserves no Z and whose field
    angles differ from those of every post of :func:`x_side_posts`, so that
    its rows move on B and on S."""
    return update_parameters(lat, g=rng.uniform(0.3, 1, lat.n_sites))


def freed(lat, sites):
    """``lat`` with ``sites`` free: h = g = 0 there and zero couplings on
    their edges, so that its ground space holds every Z pattern of them."""
    h, g = list(lat.h), list(lat.g)
    for i in sites:
        h[i] = g[i] = 0.0
    return update_parameters(lat, h=h, g=g, J_by_edge={
        (i, j): 0.0 for i, j, _ in lat.edges if {i, j} & set(sites)})


def deviations(pre, posts, observables, times):
    """Largest row differences of run_quench from the ground mixture of
    ``pre`` between the first post lattice and each of the others."""
    full, *others = (
        run_quench(QuenchProtocol(pre, post, tuple(times), tuple(observables))).rows
        for post in posts)
    assert all([r[:2] for r in full] == [r[:2] for r in other] for other in others)
    return tuple(max(abs(a[2] - b[2]) for a, b in zip(full, other)) for other in others)


def identity_deviations(lat, split, pre, observables, times, rng):
    """:func:`deviations` over :func:`x_side_posts`, for observables on B:
    the full lattice against H_Y alone and against the X side redrawn. H_Y
    alone is checked to have exactly the terms of split_hamiltonian's h_y."""
    assert all(set(obs.support()) <= split.B for obs in observables)
    posts = x_side_posts(lat, split, rng)
    h_y = split_hamiltonian(build_hamiltonian(lat), split).h_y
    assert build_hamiltonian(posts[1]).terms == h_y.terms
    return deviations(pre, posts, observables, times)


class TestShieldedDynamics:
    """From the ground mixture of a pre with y fields on every site, post
    lattices that differ only on the X side give the same rows for
    observables on B."""

    def chain_parts(self, rng, n=6, L=3):
        h = rng.uniform(0, 1, size=n)
        h[L] = 0.0
        lat = make_chain(n, rng.uniform(-2, 2, size=n - 1), h)
        return lat, validate_split(lat, range(L + 1), range(L, n))

    def test_identity_for_a_single_site_word(self):
        rng = np.random.default_rng(13)
        lat, split = self.chain_parts(rng)
        devs = identity_deviations(lat, split, tilted(lat, rng),
                                   [PauliString.single(6, 5, "Z")], [0.0, 0.7, 1.9, 3.1], rng)
        assert max(devs) < 1e-10

    def test_identity_for_a_two_site_word(self):
        rng = np.random.default_rng(17)
        lat, split = self.chain_parts(rng)
        obs = PauliString.from_sites(6, {4: "X", 5: "Z"})
        devs = identity_deviations(lat, split, tilted(lat, rng), [obs], [0.4, 1.3, 2.6], rng)
        assert max(devs) < 1e-10

    def test_diamond_split_obeys_identity(self):
        rng = np.random.default_rng(19)
        lat = make_diamond(1.0, 1.0)
        split = validate_split(lat, {0, 1, 2}, {1, 2, 3})
        devs = identity_deviations(lat, split, tilted(lat, rng),
                                   [PauliString.single(4, 3, "X")], [0.5, 1.5, 3.0], rng)
        assert max(devs) < 1e-10

    def test_b_rows_move_while_the_identity_holds(self):
        # the pre's y fields tilt the start off the posts' field angles on B,
        # so <Z_b> is far from 0 and moves, and still no post's X side shows
        rng = np.random.default_rng(31)
        n = 7
        lat = make_chain(n, [1.0, -0.8, 1.2, 0.9, -1.1, 0.7], [0.6, 0.8, 0.5, 0.0, 0.7, 0.9, 0.6])
        split = validate_split(lat, range(4), range(3, n))
        pre = tilted(lat, rng)
        obs = [PauliString.single(n, b, "Z") for b in sorted(split.B)]
        times = np.arange(0.0, 3.0, 0.3)
        rows = run_quench(QuenchProtocol(pre, lat, tuple(times), tuple(obs))).rows
        assert max(abs(value) for _, _, value in rows) > 0.1
        assert max(identity_deviations(lat, split, pre, obs, times, rng)) < 1e-10

    def test_interface_observable_feels_the_x_side(self):
        # X on the zero-field site does not commute with the X-side coupling
        # into it, so the identity holds only on B; the pre's field on that
        # site keeps <X_3> off 0, where a start that conserves Z_3 holds it
        rng = np.random.default_rng(23)
        lat, split = self.chain_parts(rng)
        devs = deviations(tilted(lat, rng), x_side_posts(lat, split, rng),
                          [PauliString.single(6, 3, "X")], [0.0, 0.7, 1.9, 3.1])
        assert min(devs) > 1e-3

    def test_interface_field_lets_the_x_side_through(self):
        # control: with a field on the interface site the split does not
        # commute, and dropping or redrawing the X side (h_0 and J_01)
        # moves <Z_3>
        rng = np.random.default_rng(29)
        n = 4
        h = rng.uniform(0.1, 1, size=n)  # no zero interface field
        lat = make_chain(n, [1.0] * (n - 1), h)
        # the split is checked on the zero-field lattice; the posts carry the field
        split = validate_split(update_parameters(lat, h=[h[0], 0.0, *h[2:]]), {0, 1}, {1, 2, 3})
        devs = deviations(tilted(lat, rng), x_side_posts(lat, split, rng),
                          [PauliString.single(n, 3, "Z")], [0.0, 0.9, 2.3, 4.1])
        assert min(devs) > 1e-3


class TestQuenchProtocol:
    def test_rejects_changed_graph(self):
        pre = make_chain(3, [1.0, 1.0], [0.5, 0.0, 0.5])
        post = make_chain(4, [1.0] * 3, [0.5, 0.0, 0.5, 0.5])
        with pytest.raises(ShieldlabError, match="^post: pre and post lattices differ in size"):
            QuenchProtocol(pre, post, (0.0,), (PauliString.single(3, 0, "Z"),))

    @pytest.mark.parametrize("text", ["+i X0", "-i Z1"])
    def test_rejects_observable_with_imaginary_phase(self, text):
        pre = make_chain(2, [1.0], [0.5, 0.5])
        obs = (PauliString.single(2, 0, "Z"), PauliString.from_text(text, 2))
        with pytest.raises(ShieldlabError, match=r"^observables\[1\]: .* has phase \+i or -i"):
            QuenchProtocol(pre, pre, (0.0,), obs)

    def test_rejects_unsorted_times(self):
        pre = make_chain(2, [1.0], [0.5, 0.5])
        with pytest.raises(ShieldlabError, match="^times: must be non-negative and ascending"):
            QuenchProtocol(pre, pre, (1.0, 0.5),
                           (PauliString.single(2, 0, "Z"),))

    @pytest.mark.parametrize("times", [(0.0, math.inf), (0.0, math.nan, 1.0),
                                       (-math.inf, 0.0)])
    def test_rejects_nonfinite_times(self, times):
        pre = make_chain(2, [1.0], [0.5, 0.5])
        with pytest.raises(ShieldlabError, match=r"^times: must be finite"):
            QuenchProtocol(pre, pre, times, (PauliString.single(2, 0, "Z"),))

    def test_observables_sharing_a_first_site_are_refused(self):
        # their rows would share every (t, site) key
        pre = make_chain(4, [1.0] * 3, [0.5, 0.0, 0.5, 0.5])
        obs = (PauliString.from_text("+ X0", 4), PauliString.from_text("+ Z0 Z1", 4))
        with pytest.raises(ShieldlabError,
                           match=r"^observables\[1\]: shares its site column \(0\) "
                                 r"with observables\[0\]"):
            run_quench(QuenchProtocol(pre, pre, (0.0, 1.0), obs))

    def test_wrong_size_observable_names_its_key(self):
        pre = make_chain(2, [1.0], [0.5, 0.5])
        obs = (PauliString.single(2, 0, "Z"), PauliString.single(3, 0, "Z"))
        with pytest.raises(ShieldlabError, match=r"^observables\[1\]: observable"):
            QuenchProtocol(pre, pre, (0.0,), obs)


class TestRunQuench:
    def test_stationary_when_nothing_changes(self, quench_path):
        pre = make_chain(4, [1.0] * 3, [0.5, 0.0, 0.5, 0.5])
        obs = tuple(PauliString.single(4, i, "X") for i in range(4))
        protocol = QuenchProtocol(pre, pre, tuple(np.arange(0, 3.0, 0.5)), obs)
        table = run_quench(protocol)
        for site in range(4):
            values = [v for (t, s, v) in table.rows if s == site]
            assert max(values) - min(values) < 1e-12

    def test_rows_ordered_by_time_then_site(self, quench_path):
        pre = make_chain(3, [1.0, 1.0], [0.5, 0.0, 0.5])
        obs = tuple(PauliString.single(3, i, "X") for i in (2, 0, 1))
        protocol = QuenchProtocol(pre, pre, (0.0, 1.0), obs)
        table = run_quench(protocol)
        keys = [(t, s) for (t, s, _) in table.rows]
        assert keys == sorted(keys)
        assert table.columns == ("t", "site", "value")

    def test_long_time_grid_is_evolved_in_bounded_batches(self, monkeypatch):
        import shieldlab.dynamics as dynamics
        products = []
        original = dynamics._dot

        def recorded(a, z):
            products.append((a.size, z.size))
            return original(a, z)

        monkeypatch.setattr(dynamics, "_dot", recorded)
        budget = 2000  # full-basis entries per batch, small enough to split the grid
        monkeypatch.setattr(dynamics, "_BATCH_ENTRIES", budget)
        h = [0.6, 0.6, 0.0, 0.6, 0.6, 0.6]
        pre = make_chain(6, [1.0, -0.7, 1.3, 0.4, -1.1], h)
        post = make_chain(6, [1.0, -0.7, 1.3, 0.4, -1.1], [-2.0] + h[1:])
        obs = (PauliString.single(6, 5, "Z"),)
        times = tuple(np.arange(0.0, 20.0, 0.1))
        wide = freed(pre, [1, 2, 3, 4])
        # one 32-dim block placed twice in a 64-dim basis: the ground pair is
        # evolved 2000 // (64 * 2) = 15 times per batch, 14 batches for 200
        # times; the 16 ground columns of four free sites exceed the budget at
        # one time, so one time per batch; one product per placement and batch
        for start, n_products in ((pre, 2 * 14), (wide, 2 * 200)):
            products.clear()
            table = run_quench(QuenchProtocol(start, post, times, obs))
            evolution = products[2:]  # after one projection per placement
            assert len(evolution) == n_products
            # each ground column lies in one placement, so a product takes the
            # real and imaginary parts of that one column at each time: the
            # batch's budget of complex entries over the two placements
            assert start is wide or all(2 * z <= budget for _, z in evolution)
            tail = run_quench(QuenchProtocol(start, post, times[-3:], obs))
            assert [r[2] for r in table.rows[-3:]] == pytest.approx(
                [r[2] for r in tail.rows], abs=1e-12)

    def test_many_small_blocks_evolve_in_one_batch(self, monkeypatch):
        # 6 zero-field sites after the quench: 32 blocks of dimension 4, each
        # placed twice; a short grid fits one batch, so each placement is
        # projected onto once and evolved in one product. Each placement lies
        # on one side of the pre's zero-field site 2, so one of the two ground
        # columns is live there: its projection is one column wide, and its
        # product takes that column's real and imaginary parts at every time.
        import shieldlab.dynamics as dynamics
        from shieldlab import spectrum
        products = []
        original = dynamics._dot

        def recorded(a, z):
            products.append(z.shape)
            return original(a, z)

        monkeypatch.setattr(dynamics, "_dot", recorded)
        n = 8
        edges = [1.0, -0.7, 1.3, 0.4, -1.1, 0.9, -0.5]
        pre = make_chain(n, edges, [0.6, 0.8, 0.0, 0.7, 0.5, 0.9, 0.4, 0.6])
        post = make_chain(n, edges, [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7])
        h_post = build_hamiltonian(post)
        placements = len(spectrum(h_post).placements)
        assert placements == 64
        obs = tuple(PauliString.single(n, i, "XYZ"[i % 3]) for i in range(n))
        times = tuple(np.arange(0.0, 3.0, 0.25))
        table = run_quench(QuenchProtocol(pre, post, times, obs))
        live = 1
        assert len(products) == 2 * placements
        assert all(shape == (4, live) for shape in products[:placements])
        assert all(shape == (4, 2 * len(times) * live) for shape in products[placements:])

        rho0, _, _ = dense_ground(build_hamiltonian(pre))
        w, v = dense_spectrum(h_post)
        for (t, site, value) in table.rows:
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            ref = np.trace(u @ rho0 @ u.conj().T @ kron_word(obs[site])).real
            assert value == pytest.approx(ref, abs=1e-12)

    def test_each_observable_is_read_once_per_batch(self, monkeypatch):
        # one read per word and batch, over every column of the batch; the
        # rows match the dense oracle
        import shieldlab.dynamics as dynamics
        reads = []
        original = dynamics._read

        def recorded(word, evolved):
            reads.append((word[0], evolved.shape))
            return original(word, evolved)

        monkeypatch.setattr(dynamics, "_read", recorded)
        monkeypatch.setattr(dynamics, "_BATCH_ENTRIES", 64 * 2 * 4)  # 4 times per batch
        n = 6
        edges = [1.0, -0.7, 1.3, 0.4, -1.1]
        pre = make_chain(n, edges, [0.6, 0.6, 0.0, 0.6, 0.6, 0.6])
        post = make_chain(n, edges, [-2.0, 0.6, 0.0, 0.6, 0.6, 0.6])
        obs = tuple(PauliString.single(n, i, "XYZ"[i % 3]) for i in (4, 0, 5, 2))
        times = tuple(np.arange(0.0, 2.5, 0.25))  # 10 times: batches of 4, 4, 2
        table = run_quench(QuenchProtocol(pre, post, times, obs))
        width = 2  # the ground pair of the zero-field site
        in_order = sorted(obs, key=lambda o: o.support()[0])
        # the batch's real array: rows, states, real and imaginary parts, times;
        # the words are read in protocol order, and only the rows are sorted
        assert reads == [(o.xzk[0], (64, width, 2, k))
                         for k in (4, 4, 2) for o in obs]

        rho0, _, _ = dense_ground(build_hamiltonian(pre))
        w, v = dense_spectrum(build_hamiltonian(post))
        expected = [(t, o.support()[0], o) for t in times for o in in_order]
        assert [r[:2] for r in table.rows] == [e[:2] for e in expected]
        for (t, _, value), (_, _, o) in zip(table.rows, expected):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            ref = np.trace(u @ rho0 @ u.conj().T @ kron_word(o)).real
            assert abs(value - ref) <= 1e-12

    def test_disturbance_stops_at_zero_field_site(self, quench_path):
        n, L = 8, 3
        h = [0.5] * n
        h[L] = 0.0
        pre = make_chain(n, [1.0] * (n - 1), h)
        h2 = list(h)
        h2[0] = -10.0
        post = make_chain(n, [1.0] * (n - 1), h2)
        obs = tuple(PauliString.single(n, i, "X") for i in range(n))
        times = tuple(np.arange(0.0, 4.0001, 0.1))
        table = run_quench(QuenchProtocol(pre, post, times, obs))
        variation = {}
        for (t, s, v) in table.rows:
            lo, hi = variation.get(s, (v, v))
            variation[s] = (min(lo, v), max(hi, v))
        for site in range(L + 1, n):
            lo, hi = variation[site]
            assert hi - lo < 1e-9
        assert any(variation[s][1] - variation[s][0] > 1e-2 for s in range(L))

    def test_matches_density_evolution(self):
        # vector fast path against the literal rho(t) = U rho U† definition,
        # with U and rho from dense eigh
        pre = make_chain(3, [1.0, 0.5], [0.4, 0.0, 0.7])
        post = make_chain(3, [1.0, 0.5], [-2.0, 0.0, 0.7])
        obs = tuple(PauliString.single(3, i, "Z") for i in range(3))
        times = (0.0, 0.8, 1.7)
        table = run_quench(QuenchProtocol(pre, post, times, obs))
        rho0, _, tol = dense_ground(build_hamiltonian(pre))
        w, v = dense_spectrum(build_hamiltonian(post))
        for (t, site, value) in table.rows:
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            ref = np.trace(u @ rho0 @ u.conj().T @ kron_word(obs[site])).real
            assert value == pytest.approx(ref, abs=tol)


class TestFoldedPhases:
    """The y-field phases folded into each word's coefficients, against the
    dense kron_word evolution: y fields on every field site, words with
    imaginary coefficients and multi-bit flip masks, both placement layouts,
    from a narrow ground start and from one with live columns in every
    placement."""

    WORDS = ("+ Y0", "+ X1 Y3", "- Y2 X4 Z6", "+ Z5 Z6")

    @staticmethod
    def lattices(zero):
        rng = np.random.default_rng(71)
        n = 7
        edges = [(i, i + 1, rng.uniform(-2, 2)) for i in range(n - 1)] + [(1, 5, 0.8)]
        h, g = rng.uniform(0.3, 1, n), rng.uniform(0.3, 1, n) * rng.choice([-1, 1], n)
        h[zero] = g[zero] = 0.0
        pre = validate_lattice(n, edges, h, g)
        h[3], g[3] = -2.0, 1.5
        return pre, validate_lattice(n, edges, h, g)

    @pytest.mark.parametrize("zero", [[], [2, 5]])
    @pytest.mark.parametrize("start", ["ground", "wide"])
    def test_rows_match_dense_evolution(self, zero, start):
        from shieldlab import spectrum
        pre, post = self.lattices(zero)
        n = pre.n_sites
        dec = spectrum(build_hamiltonian(post))
        assert dec.phases is not None
        # no zero field: the two spin-flip sectors, each on (R, R̄) with
        # (1, ±1)/√2; else one pivot, each block placed on R and R̄
        coefs = {c for _, _, c in dec.placements}
        assert coefs == ({(math.sqrt(0.5), math.sqrt(0.5)), (math.sqrt(0.5), -math.sqrt(0.5))}
                         if not zero else {(1.0,)})
        obs = tuple(PauliString.from_text(text, n) for text in self.WORDS)
        assert [o.xzk[0] for o in obs] == [64, 40, 20, 0]
        times = (0.0, 0.6, 1.7)
        if start == "wide":
            # sites 2 and 5 free, and 0 too: eight ground columns, every Z
            # pattern of the post's zero-field sites among them
            pre = freed(pre, [0, 2, 5])
        rho0, d, _ = dense_ground(build_hamiltonian(pre))
        assert d == (8 if start == "wide" else 1 if not zero else 2)
        table = run_quench(QuenchProtocol(pre, post, times, obs))
        in_order = sorted(obs, key=lambda o: o.support()[0])
        w, v = dense_spectrum(build_hamiltonian(post))
        assert len(table.rows) == len(times) * len(obs)
        for k, (t, site, value) in enumerate(table.rows):
            o = in_order[k % len(obs)]
            assert (t, site) == (times[k // len(obs)], o.support()[0])
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            ref = np.trace(u @ rho0 @ u.conj().T @ kron_word(o)).real
            assert abs(value - ref) <= 1e-12, (t, o)

    def test_placement_without_support_runs_no_product(self, monkeypatch):
        # zero fields on sites 1 and 2: the ground space has Z1 Z2 = sign J12,
        # so it lies on two of the four placements, and the other two take
        # neither a projection nor an evolution product
        import shieldlab.dynamics as dynamics
        from shieldlab import spectrum
        products = []
        original = dynamics._dot

        def recorded(a, z):
            products.append(z.shape)
            return original(a, z)

        monkeypatch.setattr(dynamics, "_dot", recorded)
        pre = make_chain(4, [0.9, 1.3, -0.6], [0.7, 0.0, 0.0, 0.5])
        post = make_chain(4, [0.9, 1.3, -0.6], [-2.0, 0.0, 0.0, 0.5])
        assert len(spectrum(build_hamiltonian(post)).placements) == 4
        obs = tuple(PauliString.single(4, i, "XYZ"[i % 3]) for i in range(4))
        times = (0.0, 0.5, 1.4)
        table = run_quench(QuenchProtocol(pre, post, times, obs))
        # one projection and one product for each of the two live placements
        assert products == [(4, 1), (4, 1), (4, 2 * len(times)), (4, 2 * len(times))]

        rho0, d, _ = dense_ground(build_hamiltonian(pre))
        assert d == 2
        w, v = dense_spectrum(build_hamiltonian(post))
        for (t, site, value) in table.rows:
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            ref = np.trace(u @ rho0 @ u.conj().T @ kron_word(obs[site])).real
            assert abs(value - ref) <= 1e-12


class TestSectorOracle:
    """Evolution through the parity sectors against dense eigh."""

    def test_wide_start_evolution_matches_dense_eigh(self):
        # from a pre with every third site free, whose ground columns have
        # every Z pattern of those sites, read by every single-site observable
        for lat in oracle_lattices(43):
            n = lat.n_sites
            pre = freed(lat, range(0, n, 3))
            w, v = dense_spectrum(build_hamiltonian(lat))
            rho0, d, tol = dense_ground(build_hamiltonian(pre))
            assert d % 2 ** len(range(0, n, 3)) == 0
            obs = tuple(PauliString.single(n, i, "XYZ"[i % 3]) for i in range(n))
            table = run_quench(QuenchProtocol(pre, lat, (0.4, 3.1), obs))
            for (t, site, value) in table.rows:
                u = (v * np.exp(-1j * w * t)) @ v.conj().T
                ref = np.trace(u @ rho0 @ u.conj().T @ kron_word(obs[site])).real
                assert value == pytest.approx(ref, abs=tol)

    @staticmethod
    def check_quench(pre, post):
        n = pre.n_sites
        obs = tuple(PauliString.single(n, i, "XYZ"[i % 3]) for i in range(n))
        times = (0.0, 0.7, 2.9)
        table = run_quench(QuenchProtocol(pre, post, times, obs))
        rho0, _, tol = dense_ground(build_hamiltonian(pre))
        w, v = dense_spectrum(build_hamiltonian(post))
        for (t, site, value) in table.rows:
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            ref = np.trace(u @ rho0 @ u.conj().T @ kron_word(obs[site])).real
            assert value == pytest.approx(ref, abs=tol)

    def test_run_quench_matches_dense_eigh(self):
        rng = np.random.default_rng(47)
        for pre in oracle_lattices(53):
            n = pre.n_sites
            post = validate_lattice(
                n, [(i, j, rng.uniform(-2, 2)) for (i, j, _) in pre.edges],
                rng.uniform(-1, 1, n), rng.uniform(-1, 1, n) * rng.integers(2))
            self.check_quench(pre, post)

    def test_run_quench_keeps_zero_field_sectors(self):
        # the post-quench lattice keeps the pre's zero-field sites, so both
        # spectra are split on them
        rng = np.random.default_rng(59)
        for pre in zero_field_lattices(np.random.default_rng(61)):
            n = pre.n_sites
            zero = (np.array(pre.h) == 0.0) & (np.array(pre.g) == 0.0)
            h, g = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n) * rng.integers(2)
            h[zero] = g[zero] = 0.0
            post = validate_lattice(
                n, [(i, j, rng.uniform(-2, 2)) for (i, j, _) in pre.edges], h, g)
            self.check_quench(pre, post)
