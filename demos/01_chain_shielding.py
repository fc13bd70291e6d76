#!/usr/bin/env python3
"""One zero-field site makes half a chain invisible to the other half.

Build an open transverse-field Ising chain, switch off the field on one
interior site, and compare the exact reduced Gibbs state of the right half
against the Gibbs state the right half would have all by itself. Then crank
the left half's parameters as hard as you like: the right half's state does
not move. A classical control chain shows this is NOT just because the two
halves commute.
"""

import numpy as np

from shieldlab import (
    PauliString,
    build_hamiltonian,
    classical_chain_reduced,
    classify_distance,
    commutator_norm,
    expectation,
    make_chain,
    reduced_state,
    shielding_report,
    split_hamiltonian,
    trace_distance,
    update_parameters,
    validate_split,
)

rng = np.random.default_rng(0)

n, cut = 7, 3          # zero-field site (0-indexed)
beta = 1.0
h = rng.uniform(0, 1, size=n)
h[cut] = 0.0
lat = make_chain(n, rng.uniform(-2, 2, size=n - 1), h)
split = validate_split(lat, range(cut + 1), range(cut, n))

print(f"chain of {n} sites, field switched off on site {cut}")
report = shielding_report(lat, split, beta)
print(f"  trace distance (reduced vs shielded Gibbs): {report.distance:.3e}"
      f"  -> {report.verdict}")
assert report.verdict == "pass"

parts = split_hamiltonian(build_hamiltonian(lat), split)
print(f"  the two halves commute: |[H_X, H_Y]| = "
      f"{commutator_norm(parts.h_x, parts.h_y):.1f}")

# hammer the left side: huge couplings, new fields
wild_h = list(lat.h)
for i in range(cut):
    wild_h[i] = rng.uniform(-5, 5)
wild = update_parameters(
    lat, h=wild_h,
    J_by_edge={(i, i + 1): rng.uniform(-10, 10) for i in range(cut)},
)
before = reduced_state(build_hamiltonian(lat), beta, range(cut, n))
after = reduced_state(build_hamiltonian(wild), beta, range(cut, n))
moved = trace_distance(before, after)
print(f"  after rewriting the left half entirely: distance {moved:.3e}")
assert classify_distance(moved) == "pass"

print()
print("control: classical chain pinned by a longitudinal field on site 1")
print("(its halves also commute, yet every site feels the pinned field)")
for i in (2, 4, 6):
    a = expectation(classical_chain_reduced(i, beta, 0.2), PauliString("Z"))
    b = expectation(classical_chain_reduced(i, beta, 1.5), PauliString("Z"))
    print(f"  site {i}: <Z> moves {a:+.6f} -> {b:+.6f} when the field changes")
