#!/usr/bin/env python3
"""No signal crosses a zero-field site, no matter how long you wait.

Prepare a 10-site chain (field off on site 4) in its ground-space mixture,
then slam the field on site 0 from 0.5 to -10. The disturbance rattles
around the left half forever; every X magnetization at and beyond the
zero-field site stays frozen to machine precision - not just slow, exactly
static. This is the commuting-split identity at work: observables on the
far side never see the quenched half of the Hamiltonian.

The same quench on a 200-site chain ends the demo. Far past the dense cap
of 12 sites, the library solves it as free fermions through ``run_quench``;
the config runner, which checks the cap as it parses, would refuse it.
"""

import numpy as np

from shieldlab import (
    PauliString,
    QuenchProtocol,
    make_chain,
    run_quench,
    run_quench_experiment,
    update_parameters,
)

n, cut = 10, 4
h = [0.5] * n
h[cut] = 0.0
cfg = {
    "pre": {
        "n_sites": n,
        "index_base": 0,
        "edges": [[i, i + 1, 1.0] for i in range(n - 1)],
        "h": h,
    },
    "quench_site": 0,
    "quench_h": -10.0,
    "times": {"start": 0.0, "stop": 6.0, "step": 0.05},
    "observables": "x",
    "split": {"X": list(range(cut + 1)), "Y": list(range(cut, n))},
}

table = run_quench_experiment(cfg)
lo = {}
hi = {}
for (t, site, value) in table.rows:
    lo[site] = min(lo.get(site, value), value)
    hi[site] = max(hi.get(site, value), value)

print(f"total <X_i> excursion over t in [0, 6] after quenching site 0:")
for site in range(n):
    swing = hi[site] - lo[site]
    marker = "<- zero-field site" if site == cut else ""
    bar = "#" * int(min(swing, 0.5) * 80)
    print(f"  site {site:2d}: {swing:9.2e} {bar:40s} {marker}")

verdict = table.metadata["verdict"]
print(f"\ndriven side max swing:   {verdict['max_variation_driven']:.3e}")
print(f"shielded side max swing: {verdict['max_variation_shielded']:.3e}"
      f"  (tolerance {verdict['shielded_tol']:.0e})")

n = 200
h = [0.5] * n
h[cut] = 0.0
pre = make_chain(n, [1.0] * (n - 1), h)
post = update_parameters(pre, h=[-10.0, *h[1:]])
times = tuple(np.linspace(0.0, 6.0, 121))
xs = tuple(PauliString.single(n, i, "X") for i in range(n))
table = run_quench(QuenchProtocol(pre, post, times, xs))
values = np.array([value for (_, _, value) in table.rows]).reshape(len(times), n)
swing = values.max(axis=0) - values.min(axis=0)
print(f"\n{n}-site chain, same quench ({table.metadata['solver']} solve):")
print(f"driven side max swing:   {swing[:cut].max():.3e}")
print(f"shielded side max swing: {swing[cut:].max():.3e}")
