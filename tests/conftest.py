import cmath
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from heisenfourier.grid import circulant_index, shift_kernel

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis also caches the constants it reads from source files,
# already while pytest collects; that cache goes to the system's temporary
# directory, so a test run writes no .hypothesis/ directory into the checkout.
settings.register_profile("heisenfourier", derandomize=True, deadline=None, database=None)
settings.load_profile("heisenfourier")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "heisenfourier-hypothesis")


@pytest.fixture
def literal_rep_matrix():
    """rep_matrix as written: the central phase times the modulated shift,
    with T_x gathered from its kernel row through the (m - n) mod N table."""

    def rep(t, g, grid):
        x, y, z = g
        phase = cmath.exp(2j * math.pi * t * z + 1j * math.pi * t * y * x)
        mod = np.exp(-2j * np.pi * (t * y) * grid.nodes)
        shift = np.take(shift_kernel(grid, x), circulant_index(grid.n_points))
        return phase * (mod[:, None] * shift)

    return rep
