"""Frequency lattices and operator-valued fields over them.

A TGrid is the punctured symmetric lattice {k*delta : k = -K..K, k != 0}.
An OperatorField assigns one square complex matrix to every lattice node;
it is the discrete stand-in for an integrable trace-class-valued field
over the frequency line.  Stored fields follow the measure-absorbed
convention: the node matrix already contains the |t| density factor, so
downstream sums use plain delta weights.

A node is its integer index k; at_k gives the zero matrix for k = 0 and
for |k| > K, whose frequencies the stored field leaves out.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .grid import as_count, as_real


@dataclass(frozen=True)
class TGrid:
    delta: float
    k_max: int

    def __post_init__(self) -> None:
        delta = as_real("delta", self.delta)
        object.__setattr__(self, "delta", delta)
        if not (delta > 0 and math.isfinite(delta)):
            raise ValueError(f"delta must be positive and finite, got {delta}")
        k_max = as_count("k_max", self.k_max)
        object.__setattr__(self, "k_max", k_max)
        if k_max < 1:
            raise ValueError(f"k_max must be a positive integer, got {k_max}")
        if not math.isfinite(k_max * delta):
            raise ValueError(f"delta {delta} overflows the largest node {k_max} * delta")

    @property
    def ks(self) -> tuple:
        K = self.k_max
        return tuple(range(-K, 0)) + tuple(range(1, K + 1))

    @cached_property
    def nodes(self) -> np.ndarray:
        t = np.array([k * self.delta for k in self.ks])
        t.setflags(write=False)
        return t

    @property
    def n_nodes(self) -> int:
        return 2 * self.k_max

    def index_of(self, k: int) -> Optional[int]:
        """Position of integer node k in the storage order, None if absent.

        A float or a bool is a ValueError that names k."""
        k = as_count("k", k)
        if k == 0 or abs(k) > self.k_max:
            return None
        return k + self.k_max if k < 0 else self.k_max + k - 1


@dataclass
class OperatorField:
    tgrid: TGrid
    mats: np.ndarray

    def __post_init__(self) -> None:
        self.mats = np.asarray(self.mats, dtype=complex)
        n = self.tgrid.n_nodes
        if self.mats.ndim != 3 or self.mats.shape[0] != n:
            raise ValueError(
                f"expected {n} node matrices, got array of shape {self.mats.shape}"
            )
        if self.mats.shape[1] != self.mats.shape[2]:
            raise ValueError("node matrices must be square")
        if not np.all(np.isfinite(self.mats)):
            raise ValueError("field contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def at_k(self, k: int) -> np.ndarray:
        pos = self.tgrid.index_of(k)
        if pos is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.mats[pos]

    def same_lattice(self, other: "OperatorField") -> bool:
        return self.tgrid == other.tgrid and self.dim == other.dim

    def __sub__(self, other: "OperatorField") -> "OperatorField":
        if not self.same_lattice(other):
            raise ValueError("fields live on different lattices")
        return OperatorField(self.tgrid, self.mats - other.mats)


# ---------------------------------------------------------------------------
# directory serialization: meta.txt plus one raw little-endian complex-double
# matrix file per node, named by the integer node index


def _read_header(dirpath) -> tuple:
    """(tgrid, dim) from dirpath's meta.txt; a ValueError that names the
    file when it is not a field header."""
    path = os.path.join(dirpath, "meta.txt")
    meta = {}
    try:
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:
                    meta[parts[0]] = parts[1]
        tgrid = TGrid(float(meta["delta"]), int(meta["k_max"]))
        dim = int(meta["dim"])
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
    except KeyError as missing:
        raise ValueError(f"{path}: metadata lacks {missing}") from None
    except ValueError as err:
        raise ValueError(f"{path}: not a field header ({err})") from None
    return tgrid, dim


def save_field(F: OperatorField, dirpath) -> None:
    """Write F into dirpath.  The node files listed by a meta.txt already
    there are deleted first, and no other file; a meta.txt that is not a
    field header is a ValueError, and then no file is deleted."""
    os.makedirs(dirpath, exist_ok=True)
    if os.path.exists(os.path.join(dirpath, "meta.txt")):
        old, _ = _read_header(dirpath)
        for k in old.ks:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(dirpath, f"{k}.bin"))
    with open(os.path.join(dirpath, "meta.txt"), "w") as fh:
        fh.write(f"delta {F.tgrid.delta!r}\n")
        fh.write(f"k_max {F.tgrid.k_max}\n")
        fh.write(f"dim {F.dim}\n")
    for pos, k in enumerate(F.tgrid.ks):
        mat = np.ascontiguousarray(F.mats[pos], dtype="<c16")
        with open(os.path.join(dirpath, f"{k}.bin"), "wb") as fh:
            fh.write(mat.tobytes())


def load_field(dirpath) -> OperatorField:
    tgrid, dim = _read_header(dirpath)
    mats = np.empty((tgrid.n_nodes, dim, dim), dtype=complex)
    for pos, k in enumerate(tgrid.ks):
        path = os.path.join(dirpath, f"{k}.bin")
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) != dim * dim * 16:
            raise ValueError(f"{path}: expected {dim * dim * 16} bytes, got {len(raw)}")
        mats[pos] = np.frombuffer(raw, dtype="<c16").reshape(dim, dim)
    return OperatorField(tgrid, mats)
