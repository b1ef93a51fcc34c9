"""Exact structure-constant engine: brackets, lower central series, h3 copies.

Everything runs in Fraction arithmetic; subspaces go through a rational
reduced row echelon form, so rank decisions are never floating-point.
"""

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)

# from_brackets builds a dim^3 tensor and the Jacobi check runs over every
# triple, so a structure file's dimension is capped; the bundled ones stop at 6
MAX_DIM = 32


def _vec(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def _is_zero(v: Sequence[Fraction]) -> bool:
    return all(c == 0 for c in v)


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    work = [list(r) for r in rows if not _is_zero(r)]
    if not work:
        return ()
    width = len(work[0])
    out: list[list[Fraction]] = []
    rank = 0
    for col in range(width):
        pivot = None
        for idx in range(rank, len(work)):
            if work[idx][col] != 0:
                pivot = idx
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        work[rank] = [c / lead for c in work[rank]]
        for idx in range(len(work)):
            if idx != rank and work[idx][col] != 0:
                factor = work[idx][col]
                work[idx] = [a - factor * b for a, b in zip(work[idx], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank] if not _is_zero(r))


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k."""

    dim: int
    c: tuple  # c[i][j] is the coordinate vector of [e_i, e_j]

    def __post_init__(self) -> None:
        n = self.dim
        if n < 1:
            raise ValueError("dimension must be positive")
        if len(self.c) != n or any(
            len(row) != n or any(len(v) != n for v in row) for row in self.c
        ):
            raise ValueError("structure tensor must be dim x dim x dim")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.c[i][j][k] != -self.c[j][i][k]:
                        raise ValueError(
                            f"antisymmetry fails at c[{i + 1}][{j + 1}][{k + 1}]"
                        )
        basis = _basis_of_full_space(n)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [
                        a + b + c
                        for a, b, c in zip(
                            bracket(self, basis[i], self.c[j][k]),
                            bracket(self, basis[j], self.c[k][i]),
                            bracket(self, basis[k], self.c[i][j]),
                        )
                    ]
                    if not _is_zero(acc):
                        raise ValueError(
                            f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1})"
                        )

    @classmethod
    def from_brackets(cls, dim: int, entries: dict) -> "LieAlgebra":
        """Build from {(i, j): {k: value}} with 1-based indices, i < j allowed
        in either order; the antisymmetric partner is filled in and, when both
        orders are present, checked for consistency.  A dim above MAX_DIM
        is a ValueError, raised before the tensor is built."""
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} is above the limit {MAX_DIM}")
        c = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for (i, j), comps in entries.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError(f"basis index out of range in ({i}, {j})")
            for k, raw in comps.items():
                if not 1 <= k <= dim:
                    raise ValueError(f"component index {k} out of range")
                val = Fraction(raw)
                if i == j:
                    if val != 0:
                        raise ValueError(f"[e{i}, e{i}] must vanish")
                    continue
                key = (i - 1, j - 1, k - 1)
                mirror = (j - 1, i - 1, k - 1)
                if mirror in seen and c[j - 1][i - 1][k - 1] != -val:
                    raise ValueError(
                        f"inconsistent antisymmetric pair at ({i}, {j}, {k})"
                    )
                c[i - 1][j - 1][k - 1] = val
                if mirror not in seen:
                    c[j - 1][i - 1][k - 1] = -val
                seen.add(key)
        tensor = tuple(tuple(tuple(row) for row in plane) for plane in c)
        return cls(dim, tensor)


def bracket(L: LieAlgebra, u: Sequence, v: Sequence) -> Vector:
    """[u, v] by bilinear expansion of the structure constants, exact."""
    if len(u) != L.dim or len(v) != L.dim:
        raise ValueError("vectors must match the algebra dimension")
    uu = _vec(u)
    vv = _vec(v)
    out = [_ZERO] * L.dim
    for i, a in enumerate(uu):
        if a == 0:
            continue
        for j, b in enumerate(vv):
            if b == 0:
                continue
            coeff = a * b
            for k, s in enumerate(L.c[i][j]):
                if s != 0:
                    out[k] += coeff * s
    return tuple(out)


@dataclass(frozen=True)
class SubspaceFlag:
    """Descending chain of subspaces, each a reduced-echelon rational basis."""

    spaces: tuple  # tuple of bases; a basis is a tuple of Vectors

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.spaces)

    @property
    def nilpotency_degree(self) -> Optional[int]:
        """For a lower central series: the least d with C_{d+1} = 0, or None."""
        return len(self.spaces) - 1 if not self.spaces[-1] else None


def _basis_of_full_space(n: int) -> tuple[Vector, ...]:
    return tuple(
        tuple(Fraction(1) if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def lower_central_series(L: LieAlgebra) -> SubspaceFlag:
    """C_1 = g, C_{j+1} = [g, C_j], reduced exactly; stops at 0 or stabilization."""
    current = _rref(_basis_of_full_space(L.dim))
    chain = [current]
    basis = _basis_of_full_space(L.dim)
    while current:
        images = [bracket(L, e, b) for e in basis for b in current]
        nxt = _rref(images)
        if len(nxt) == len(current):
            break
        chain.append(nxt)
        current = nxt
    return SubspaceFlag(tuple(chain))


class H3Embedding(NamedTuple):
    x: Vector
    y: Vector
    z: Vector


def find_h3(L: LieAlgebra) -> H3Embedding:
    """First basis vector x of C_{d-1} with a basis partner y giving a
    central [x, y] != 0, d the nilpotency degree; the centrality is checked
    exactly.  No x in C_d is skipped explicitly: [C_d, g] = C_{d+1} = 0."""
    flag = lower_central_series(L)
    degree = flag.nilpotency_degree
    if degree is None:
        raise ValueError("lower central series does not reach zero")
    if degree < 2:
        raise ValueError("abelian algebra contains no h3 copy")
    basis = _basis_of_full_space(L.dim)
    for x in flag.spaces[degree - 2]:
        for y in basis:
            z = bracket(L, x, y)
            # z central implies [x, z] = [y, z] = 0
            if _is_zero(z) or any(not _is_zero(bracket(L, e, z)) for e in basis):
                continue
            return H3Embedding(tuple(x), tuple(y), tuple(z))
    raise ValueError("no h3 copy found; input violates the nilpotent structure")


# ---------------------------------------------------------------------------
# structure-constant files


def load_structure(path) -> LieAlgebra:
    """Plain text: first line n, then one line 'i j k value' per nonzero
    constant with 1-based indices; values are integers or rationals p/q.
    Unlisted entries are zero up to antisymmetry; a repeated (i, j, k) is
    an error."""
    lines = []
    with open(path) as fh:
        for raw in fh:
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                lines.append(stripped)
    if not lines:
        raise ValueError(f"{path}: empty structure file")
    try:
        dim = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the dimension") from None
    entries: dict = {}
    for line in lines[1:]:
        try:
            i, j, k, raw = line.split()
            i, j, k, value = int(i), int(j), int(k), Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{path}: malformed line {line!r}") from None
        comps = entries.setdefault((i, j), {})
        if k in comps:
            raise ValueError(f"{path}: repeated entry ({i}, {j}, {k})")
        comps[k] = value
    try:
        return LieAlgebra.from_brackets(dim, entries)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


_DATA_DIR = Path(__file__).parent / "data"

BUNDLED = ("abelian2", "h3", "n4", "upper4", "h5")


def bundled_structure(name: str) -> LieAlgebra:
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled algebra {name!r}; have {BUNDLED}")
    return load_structure(_DATA_DIR / f"{name}.alg")
