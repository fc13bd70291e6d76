#!/usr/bin/env python3
"""Two interface sites are not enough - except at zero temperature.

The four-site diamond (outer site 0, field-free middle pair, outer site 3)
splits into commuting halves across its two-site interface, yet the far
site's X magnetization depends on the near site's field at every positive
temperature. The dependence is computed twice - convergent coefficient
series and 16x16 exact diagonalization - and dies away as beta grows; the
ground-state mixture (beta = inf, diagonalization only) does not feel it.
"""

import math

import numpy as np

from shieldlab import (
    PauliString,
    build_hamiltonian,
    expectation,
    fourspin_magnetization,
    fourspin_series_plateau,
    make_diamond,
    reduced_state,
)

h4 = 1.0
h1_grid = np.arange(0.0, 2.0001, 0.25)


def dense_magnetization(beta, h1):
    rho = reduced_state(build_hamiltonian(make_diamond(h1, h4)), beta, [3])
    return expectation(rho, PauliString("X"))


print("far-site magnetization <X_3> while sweeping the near field h_0")
print(f"{'beta':>6} | " + " ".join(f"{h1:7.2f}" for h1 in h1_grid) + " |  spread")
for beta in (1.0, 4.0, 7.0, 50.0):
    row = []
    for h1 in h1_grid:
        series = fourspin_magnetization(beta, h1, h4)
        assert abs(series - dense_magnetization(beta, h1)) < 1e-8
        row.append(series)
    print(f"{beta:6.1f} | " + " ".join(f"{v:7.4f}" for v in row)
          + f" | {max(row) - min(row):8.1e}")
row = [dense_magnetization(math.inf, h1) for h1 in h1_grid]
print(f"{'inf':>6} | " + " ".join(f"{v:7.4f}" for v in row)
      + f" | {max(row) - min(row):8.1e}")

print()
print("series and diagonalization agree to 1e-8 at every grid point")
print(f"cold limit: the sweep flattens onto h4/sqrt(4+h4^2) = "
      f"{fourspin_series_plateau(h4):.6f}")
