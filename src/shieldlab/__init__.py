"""Exact numerics for transverse-field Ising models on finite graphs.

The library builds spin-lattice Hamiltonians from explicit graphs, computes
exact Gibbs and ground states reduced to any set of sites, and checks the
shielding behavior of zero-field interfaces — together with the chain
duality, the two-site-interface counterexample series, and commuting-split
quench dynamics. Everything is exact and refused past 12 sites, and dense
but for quenches of open chains, which are solved as free fermions.
"""

__version__ = "0.1.0"

from .errors import ShieldlabError
from .pauli import PauliString, DENSE_SITE_CAP
from .lattice import (
    LatticeSpec,
    RegionSplit,
    make_chain,
    make_diamond,
    make_triangular_patch,
    update_parameters,
    validate_lattice,
    validate_split,
)
from .hamiltonian import (
    DualChain,
    HamiltonianTerms,
    SplitHamiltonians,
    build_hamiltonian,
    commutator_norm,
    dual_algebra_residual,
    dual_chain,
    split_hamiltonian,
)
from .thermal import (
    DensityMatrix,
    ShieldingReport,
    SpectralDecomposition,
    classify_distance,
    expectation,
    reduced_state,
    shielding_report,
    spectrum,
    trace_distance,
)
from .closedform import (
    FourSpinCoefficients,
    classical_chain_reduced,
    fourspin_coefficients,
    fourspin_magnetization,
    fourspin_series_plateau,
)
from .dynamics import QuenchProtocol, run_quench
from .tables import ResultTable, emit
from .experiments import (
    RUNNERS,
    load_config,
    point_rng,
    run_conjecture,
    run_counterexample,
    run_dual_check,
    run_quench_experiment,
    run_verify_shielding,
)

__all__ = [name for name in dir() if not name.startswith("_")]
