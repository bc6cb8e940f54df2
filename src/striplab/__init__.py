"""striplab: lattice Schrodinger operators with random surface disorder.

Discretizes strip-restricted operators H = -Delta + V with alloy-type
surface randomness, and provides the spectral machinery to check the
identities this model forces (ground-state boundary invariance, averaged
transverse reduction, band parabolicity, gap comparisons) and to measure
what it only promises statistically (surface-state density curves,
Lifshits-tail exponents, Wegner-type window probabilities, localization
diagnostics).
"""

__version__ = "0.1.0"

from .grid import (
    Bloch,
    BoundarySpec,
    Dirichlet,
    GridSpec,
    Mezincescu,
    Neumann,
    bc_all_dirichlet,
    bc_all_neumann,
    build_grid,
)
from .instances import SurfaceModel, classical_model, default_model, pinned_model
from .operator import GroundStateRef, Hamiltonian, assemble
from .potential import (
    CompactProfile,
    IidUniformBulk,
    NoBulk,
    PowerLawProfile,
    TwoPointCouplings,
    UniformCouplings,
    estimate_bulk_bottom,
    periodic_bulk,
)
from .spectral import (
    SpectralResult,
    count_below,
    lowest_k,
    rayleigh_ritz_upper,
    temple_lower_bound,
    variational_count_bound,
)
