"""striplab: lattice Schrodinger operators with random surface disorder.

Discretizes strip-restricted operators H = -Delta + V with alloy-type
surface randomness, and provides the spectral machinery to check the
identities this model forces (ground-state boundary invariance, averaged
transverse reduction, band parabolicity, gap comparisons) and to measure
what it only promises statistically (surface-state density curves,
Lifshits-tail exponents, Wegner-type window probabilities, localization
diagnostics).
"""

import gc
import os

__version__ = "0.1.0"

# read as OpenBLAS loads: idle BLAS threads sleep after 2^20 cycles, not 2^28 (~0.1 s of a core)
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")
# numpy, scipy and striplab leave ~70k objects that live as long as the process: no
# collection scans them while they load, and frozen, later and shutdown collections skip
# them (~60 ms a process)
_collecting = gc.isenabled()
gc.disable()
try:
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
finally:
    gc.freeze()
    if _collecting:
        gc.enable()
