import numpy as np
import pytest

from bqist import cauchy as cy
from bqist import initial_data as ini
from bqist import pde
from bqist import scattering as sc


@pytest.fixture(scope="session")
def data_small():
    """Symmetric band-limited Gaussian, small enough that the no-high-frequency
    assumption holds to ~4e-5 (identity tests at 1e-8 need this)."""
    return ini.gaussian_bandlimited(0.015, 2.0, u1_mode="zero")


@pytest.fixture(scope="session")
def refl_small(data_small):
    return sc.reflection_coefficients(data_small)


@pytest.fixture(scope="session")
def cf_small(refl_small):
    return cy.CircleFunctions(refl_small)


@pytest.fixture(scope="session")
def data_compact():
    """The benchmark's compact workload data: the README example's on a quarter of its grid."""
    return ini.gaussian_bandlimited(0.01, 2.0, L=60.0, n=2049, u1_mode="zero")


@pytest.fixture(scope="session")
def cf_compact(data_compact):
    return cy.CircleFunctions(sc.reflection_coefficients(data_compact))


@pytest.fixture(scope="session")
def data_acc():
    """The amplitude-0.1 dataset named by the scattering acceptance criteria."""
    return ini.gaussian_bandlimited(0.1, 2.0, u1_mode="zero")


@pytest.fixture(scope="session")
def soliton_data():
    return pde.soliton_profile(1.3, 0.0, L=40.0, n=4097)


@pytest.fixture(scope="session")
def soliton_zeros(soliton_data):
    return sc.find_s11_zeros(soliton_data)


@pytest.fixture(scope="session")
def zero_refl():
    return sc.reflection_coefficients(ini.zero_data(L=20.0, n=1025), n_per_arc=24)


def arcs_at(zeta=0.75):
    return cy.SectorArcs.from_zeta(zeta)
