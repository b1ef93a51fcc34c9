"""Periodic discretization of L^2(R) with exactly unitary building blocks.

The carrier space is C^N on the uniform grid w_i = -L + i*h, h = 2L/N,
with N a power of two.  Translation by an arbitrary real amount is
diagonal in the DFT basis (phases exp(-2*pi*i*xi_m*x) at the grid
frequencies xi_m = m/(2L)), so translations compose exactly and are
exactly unitary; modulation is diagonal in the position basis.  All
representation identities built from these blocks degrade only through
aliasing of whatever vectors they are applied to, never through the
blocks themselves.

A translation is also circulant, T_x[m, n] = c_x[(m - n) mod N], so it
is fixed by one kernel row c_x, the inverse DFT of its phases.
shift_phases gives the phases, shift_kernel the kernel row and
circulant_view the matrix, a read-only strided view of the kernel row
with no index table and no gather; every other module takes its shifts
from these, in whichever basis it works.  The transform's gather table
is circulant_view of np.arange(N), read out as integers.

Operators are plain complex numpy matrices.  Schatten norms always go
through a full singular value decomposition, one per matrix, and take
a whole field's stack of node matrices in one call; nothing is
estimated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class CapacityError(ValueError):
    """A requested level or size lies beyond what the code supports."""


def as_count(name: str, value) -> int:
    """value as a Python int: Python and numpy integers pass; bool, floats
    and strings fail with a ValueError that names the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(name: str, value) -> float:
    """value as a Python float: real numbers, numpy's included, pass; bool,
    complex numbers and strings fail with a ValueError that names the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GridSpec1D:
    """Uniform periodic grid on [-half_width, half_width)."""

    n_points: int
    half_width: float

    def __post_init__(self) -> None:
        n = as_count("n_points", self.n_points)
        object.__setattr__(self, "n_points", n)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 8, got {n}")
        half_width = as_real("half_width", self.half_width)
        object.__setattr__(self, "half_width", half_width)
        if not (math.isfinite(half_width) and half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {half_width}")
        # the spacing 2L/N, and the largest frequency N/(4L) as fftfreq forms it
        h = 2.0 * half_width / n
        if not (0.0 < h < math.inf and (n // 2) * (1.0 / (n * h)) < math.inf):
            raise ValueError(
                f"half_width {half_width} gives a non-finite spacing or frequency at N = {n}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        w = -self.half_width + self.spacing * np.arange(self.n_points)
        w.setflags(write=False)
        return w

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Grid frequencies m/(2L) for m = -N/2 .. N/2-1, in FFT order."""
        xi = np.fft.fftfreq(self.n_points, d=self.spacing)
        xi.setflags(write=False)
        return xi


def shift_phases(grid: GridSpec1D, shifts) -> np.ndarray:
    """DFT-basis eigenvalues of the band-limited shifts, one row per shift.

    Row x is exp(-2*pi*i*xi*x) over the grid frequencies xi, so the shift
    by x is F^-1 diag(row) F with F the DFT.  The largest phase argument,
    2*pi*max|x|*N/(4L), must be finite; it is checked in Python floats,
    as numpy forms it, before numpy computes any phase.
    """
    shifts = np.asarray(shifts, dtype=float)
    if not np.all(np.isfinite(shifts)):
        raise ValueError("shift amounts must be finite")
    x = float(np.max(np.abs(shifts), initial=0.0))
    n = grid.n_points
    if not math.isfinite(2.0 * math.pi * x * ((n // 2) * (1.0 / (n * grid.spacing)))):
        raise ValueError(f"shift {x} overflows the phases 2*pi*x*N/(4L) of the grid {grid}")
    return np.exp(-2j * np.pi * shifts[..., None] * grid.frequencies)


def shift_kernel(grid: GridSpec1D, shifts) -> np.ndarray:
    """First columns of the band-limited shifts, one kernel row per shift.

    Row x is ifft(shift_phases(grid, x)); the shift matrix itself is
    circulant_view(row).
    """
    return np.fft.ifft(shift_phases(grid, shifts), axis=-1)


def circulant_view(kernel: np.ndarray) -> np.ndarray:
    """Read-only strided view C[..., m, n] = kernel[..., (m - n) mod N].

    A window of width N slides over the reversed kernel written twice, so
    window i holds kernel[(N - 1 - i - n) mod N]; taking the windows in
    reverse order, m = N - 1 - i, gives (m - n) mod N.  No index table.
    """
    n = kernel.shape[-1]
    reversed_ = kernel[..., ::-1]
    twice = np.concatenate((reversed_, reversed_), axis=-1)
    return sliding_window_view(twice, n, axis=-1)[..., n - 1 :: -1, :]


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, in descending order, of a square matrix or of
    each matrix of a stack (..., n, n)."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.svd(a, compute_uv=False)


def schatten_norm(a: np.ndarray, p: float):
    """Schatten p-norm for p in {1, inf}, from a full SVD: a float for one
    matrix, an array in stack order for a stack (..., n, n)."""
    sv = singular_values(a)
    if p == 1:
        return sv.sum(-1)
    if p == math.inf:
        return sv.max(-1, initial=0.0)
    raise ValueError(f"p must be 1 or inf, got {p}")
