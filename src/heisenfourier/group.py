"""Heisenberg group arithmetic and functions sampled on it.

The group is R^3 with
    (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, (a1*b2-a2*b1)/2 + c1+c2),
identity (0,0,0) and inverse (-x,-y,-z).  Functions live on a
cell-centered box grid that is symmetric under coordinate negation, so
g |-> g^{-1} maps sample nodes to sample nodes exactly.  Samples are
float64 when the function is real and complex128 otherwise.

The module also carries the closed-form test family used throughout the
numerical suites: polynomial prefactors times anisotropic Gaussians.
The family is closed under pointwise products and exact z-derivatives,
which is what makes the product-rule and multiplier checks meaningful
(both sides come from independent closed-form expression trees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .grid import as_count, as_real


class GroupElement(NamedTuple):
    x: float
    y: float
    z: float


IDENTITY = GroupElement(0.0, 0.0, 0.0)


def mul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    return GroupElement(
        g1.x + g2.x,
        g1.y + g2.y,
        0.5 * (g1.x * g2.y - g2.x * g1.y) + g1.z + g2.z,
    )


def inv(g: GroupElement) -> GroupElement:
    return GroupElement(-g.x, -g.y, -g.z)


# ---------------------------------------------------------------------------
# closed-form test family: polynomial * anisotropic Gaussian


def _coerce_coeff(c):
    c = complex(c)
    return c.real if c.imag == 0.0 else c


class Poly3:
    """Polynomial in (x, y, z), stored as {(i,j,k): coeff}.

    Coefficients stay real floats unless a complex one is supplied.
    """

    def __init__(self, coeffs: Optional[dict] = None):
        self.coeffs = {m: _coerce_coeff(c) for m, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def const(cls, c: float) -> "Poly3":
        return cls({(0, 0, 0): c})

    def __add__(self, other: "Poly3") -> "Poly3":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return Poly3(out)

    def __mul__(self, other: "Poly3") -> "Poly3":
        out: dict = {}
        for (i1, j1, k1), c1 in self.coeffs.items():
            for (i2, j2, k2), c2 in other.coeffs.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                out[m] = out.get(m, 0.0) + c1 * c2
        return Poly3(out)

    def scale(self, a: float) -> "Poly3":
        return Poly3({m: a * c for m, c in self.coeffs.items()})

    def dz(self) -> "Poly3":
        out: dict = {}
        for (i, j, k), c in self.coeffs.items():
            if k > 0:
                out[(i, j, k - 1)] = out.get((i, j, k - 1), 0.0) + k * c
        return Poly3(out)

    def reflect(self) -> "Poly3":
        """p(x,y,z) -> p(-x,-y,-z)."""
        return Poly3({m: c * (-1.0) ** sum(m) for m, c in self.coeffs.items()})

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray) -> np.ndarray:
        dtype = complex if any(isinstance(c, complex) for c in self.coeffs.values()) else float
        out = np.zeros((len(xs), len(ys), len(zs)), dtype=dtype)
        X = xs[:, None, None]
        Y = ys[None, :, None]
        Z = zs[None, None, :]
        for (i, j, k), c in self.coeffs.items():
            out += c * X**i * Y**j * Z**k
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly3) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Poly3({self.coeffs!r})"


@dataclass(frozen=True)
class GaussianPoly:
    """p(x,y,z) * exp(-sum_a ((a-c_a)/sigma_a)^2 / 2), with polynomial p.

    A nonzero z_freq multiplies in exp(-2*pi*i*z_freq*z), which moves the
    operator-valued transform content to t near z_freq.
    """

    poly: Poly3
    sigma: tuple[float, float, float]
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    z_freq: float = 0.0

    def __post_init__(self) -> None:
        if any(s <= 0 or not math.isfinite(s) for s in self.sigma):
            raise ValueError(f"widths must be positive, got {self.sigma}")
        if not math.isfinite(self.z_freq):
            raise ValueError("z_freq must be finite")

    def _gauss(self, xs, ys, zs) -> np.ndarray:
        sx, sy, sz = self.sigma
        cx, cy, cz = self.center
        gx = np.exp(-((xs - cx) ** 2) / (2 * sx * sx))
        gy = np.exp(-((ys - cy) ** 2) / (2 * sy * sy))
        gz = np.exp(-((zs - cz) ** 2) / (2 * sz * sz))
        if self.z_freq != 0.0:
            gz = gz * np.exp(-2j * np.pi * self.z_freq * zs)
        return gx[:, None, None] * gy[None, :, None] * gz[None, None, :]

    def eval_grid(self, xs, ys, zs) -> np.ndarray:
        return self.poly.eval_grid(xs, ys, zs) * self._gauss(xs, ys, zs)

    def dz_poly(self) -> Poly3:
        """Polynomial prefactor of d/dz applied to this function."""
        sz = self.sigma[2]
        cz = self.center[2]
        zpoly = Poly3({(0, 0, 1): -1.0 / (sz * sz), (0, 0, 0): cz / (sz * sz)})
        if self.z_freq != 0.0:
            zpoly = zpoly + Poly3.const(-2j * math.pi * self.z_freq)
        return self.poly.dz() + self.poly * zpoly

    def dz_eval_grid(self, xs, ys, zs) -> np.ndarray:
        return self.dz_poly().eval_grid(xs, ys, zs) * self._gauss(xs, ys, zs)

    def __mul__(self, other: "GaussianPoly") -> "GaussianPoly":
        if self.center != other.center:
            raise ValueError("products are only closed for equal centers")
        sigma = tuple(
            1.0 / math.sqrt(1.0 / (a * a) + 1.0 / (b * b))
            for a, b in zip(self.sigma, other.sigma)
        )
        return GaussianPoly(
            self.poly * other.poly, sigma, self.center, self.z_freq + other.z_freq
        )

    def reflect(self) -> "GaussianPoly":
        return GaussianPoly(
            self.poly.reflect(),
            self.sigma,
            tuple(-c for c in self.center),
            -self.z_freq,
        )


# ---------------------------------------------------------------------------
# sampled functions on the group


def box_axes(box, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-centered axes; symmetric under negation because counts are even."""
    axes = []
    for half, n in zip(box, counts):
        if n < 2 or n % 2:
            raise ValueError(f"counts must be positive even integers, got {counts}")
        if half <= 0 or not math.isfinite(half):
            raise ValueError(f"box half-widths must be positive, got {box}")
        step = 2.0 * half / n
        axes.append(-half + step * (np.arange(n) + 0.5))
    return tuple(axes)


@dataclass
class SampledFunction3D:
    """Samples of f on the cell-centered grid of a box: float64 exactly
    when every sample is real, so complex input whose imaginary part is
    all zero is stored as its real part, and complex128 otherwise.

    family, when present, is the generating GaussianPoly: the closed form
    that derivation.d_z evaluates.  It travels through pointwise products
    and the check map, so their derivatives stay closed-form.
    """

    box: tuple[float, float, float]
    counts: tuple[int, int, int]
    samples: np.ndarray
    family: Optional[GaussianPoly] = None

    def __post_init__(self) -> None:
        # normalized here, so grids compare equal whatever sequence types built them
        self.box = tuple(as_real("box", h) for h in self.box)
        self.counts = tuple(as_count("counts", n) for n in self.counts)
        box_axes(self.box, self.counts)
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "biufc":
            raise ValueError(f"samples must be numeric, got dtype {samples.dtype}")
        if samples.dtype.kind == "c" and samples.imag.any():
            self.samples = np.asarray(samples, dtype=complex)
        else:
            self.samples = np.ascontiguousarray(samples.real, dtype=float)
        if self.samples.shape != self.counts:
            raise ValueError(
                f"sample shape {self.samples.shape} does not match counts {self.counts}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return box_axes(self.box, self.counts)

    @property
    def spacings(self) -> tuple[float, float, float]:
        return tuple(2.0 * h / n for h, n in zip(self.box, self.counts))

    @property
    def cell_volume(self) -> float:
        dx, dy, dz = self.spacings
        return dx * dy * dz

    def l2_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.cell_volume)

    def same_grid(self, other: "SampledFunction3D") -> bool:
        return self.box == other.box and self.counts == other.counts

    def __mul__(self, other: "SampledFunction3D") -> "SampledFunction3D":
        if not self.same_grid(other):
            raise ValueError("pointwise product requires identical grids")
        fam = None
        if (
            self.family is not None
            and other.family is not None
            and self.family.center == other.family.center
        ):
            # closed-form derivatives only survive products within a shared center
            fam = self.family * other.family
        return SampledFunction3D(self.box, self.counts, self.samples * other.samples, fam)

    def boundary_max(self) -> float:
        """Largest |f| over the six boundary faces of the sample cube."""
        s = np.abs(self.samples)
        faces = [s[0], s[-1], s[:, 0], s[:, -1], s[:, :, 0], s[:, :, -1]]
        return float(max(f.max() for f in faces))


def sample_family(
    fam: GaussianPoly, box, counts, with_dz: bool = True
) -> SampledFunction3D:
    """Samples of fam on the box grid; with_dz=False leaves the family off,
    so derivatives of the result take the spectral path."""
    xs, ys, zs = box_axes(box, counts)
    samples = fam.eval_grid(xs, ys, zs)
    return SampledFunction3D(tuple(box), tuple(counts), samples, fam if with_dz else None)


def check_map(f: SampledFunction3D) -> SampledFunction3D:
    """f |-> f-check with f-check(v) = f(v^{-1}); exact index reflection."""
    rev = f.samples[::-1, ::-1, ::-1].copy()
    fam = f.family.reflect() if f.family is not None else None
    return SampledFunction3D(f.box, f.counts, rev, fam)
