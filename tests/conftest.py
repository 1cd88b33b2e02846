import math

import numpy as np
import pytest

from bergman_heat import (SphericalHarmonicTransform, VolumeForm, build_grid,
                          flat_model, fubini_study_form)


@pytest.fixture(scope="session")
def grid():
    """Grid comfortably exact for p up to 32 plus band-limited densities."""
    return build_grid(48, 96)


@pytest.fixture(scope="session")
def fs_form(grid):
    return fubini_study_form(grid)


@pytest.fixture(scope="session")
def zonal_form(grid):
    return VolumeForm(grid, {(1, 0): -0.3}, form_id="zonal-full")


@pytest.fixture(scope="session")
def tilted_form(grid):
    return VolumeForm(grid, {(1, 1): 0.2, (2, 1): 0.1}, form_id="tilted")


@pytest.fixture(scope="session")
def sht(grid):
    return SphericalHarmonicTransform(grid, 20)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def landau_without_field_term():
    """The model operator with the ``pi * z * f`` term of its inner factor
    dropped: a broken operator that does not annihilate the kernel.  The
    same operator in sympy is ``sympy_oracle.landau_without_field_term``."""
    def operator(f):
        inner = f.diff(0) + 1j * f.diff(1)
        dz_inner = 0.5 * (inner.diff(0) - 1j * inner.diff(1))
        return -2 * dz_inner + math.pi * inner.times(flat_model.ZBAR)
    return operator
