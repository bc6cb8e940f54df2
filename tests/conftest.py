import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from striplab.floquet import ground_state_cell
from striplab.instances import default_model

settings.register_profile(
    "striplab",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("striplab")


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture(scope="session")
def ref14(model):
    """Reference ground state for M = 14 strips (depth 18)."""
    return ground_state_cell(model.cell_grid(14), model.u_per(), 18)


@pytest.fixture(scope="session")
def e0_default(ref14):
    return ref14.e0


def surface_field(model, grid, seed):
    """V_s of one realization: the couplings ``model.draw(seed, ...)`` contracted on ``grid``."""
    from striplab.potential import contract_couplings, f_weight_matrix

    weights = f_weight_matrix(grid, model.profile)
    q, _ = model.draw(seed, grid)
    return contract_couplings(q, weights)


def random_grid_hamiltonian(rng, L=None, M=None, bc="D"):
    """Small default-instance realization for oracle tests."""
    from striplab.idss import bc_for_tag
    from striplab.operator import assemble

    m = default_model()
    L = int(L if L is not None else rng.integers(3, 9))
    M = int(M if M is not None else 2 * rng.integers(3, 8))
    grid = m.strip_grid(L, M)
    v_s = surface_field(m, grid, int(rng.integers(1 << 62)))
    return assemble(grid, v_s, bc_for_tag(bc, None)), grid


def random_banded_symmetric(rng, n=None, bw=None):
    import scipy.sparse as sp

    n = int(n if n is not None else rng.integers(8, 120))
    bw = int(bw if bw is not None else rng.integers(1, min(9, n)))
    A = rng.standard_normal((n, n))
    A = np.triu(np.tril(A + A.T, bw), -bw)
    return sp.csr_matrix(A), A
