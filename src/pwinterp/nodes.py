"""Node sequences on which interpolation and criteria checks operate.

A node sequence is a finite symmetric window of distinct complex nodes
``lambda_k = xi_k + i*eta_k`` indexed by integers ``k`` in ``[-K, K]``.
Generated families perturb the integer lattice by a pattern ``delta_k``;
arbitrary sequences can be loaded from CSV.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FamilySpec",
    "Node",
    "NodeSequence",
    "GENERATED_KINDS",
    "integer_lattice",
    "make_family",
    "load_nodes",
    "save_nodes",
    "separation",
    "relative_density",
]

GENERATED_KINDS = ("integer", "constant_shift", "signed", "alternating", "random")

# Largest |d| per kind that keeps the minimum gap positive.  Constant shifts
# never change gaps; the signed pattern only compresses near the origin;
# alternating and random patterns can collapse adjacent gaps at |d| = 1/2.
_D_BOUND = {
    "integer": 0.0,
    "constant_shift": 1.0,
    "signed": 1.0,
    "alternating": 0.5,
    "random": 0.5,
}


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for a generated node family ``lambda_k = k + delta_k``.

    Parameters
    ----------
    kind : str
        One of ``integer``, ``constant_shift``, ``signed``, ``alternating``,
        ``random``.
    d : float
        Perturbation magnitude.  ``constant_shift`` uses ``delta_k = d``,
        ``signed`` uses ``delta_k = sgn(k) * d`` for ``k != 0``,
        ``alternating`` uses ``delta_k = (-1)**k * d`` and ``random`` draws
        ``delta_k`` uniformly from ``[-d, d]``.
    delta0 : float
        Origin perturbation for the ``signed`` kind (``lambda_0 = delta0``).
        Defaults to 1, which detaches the origin node from the tail pattern.
    seed : int
        Seed for the ``random`` kind.
    """

    kind: str
    d: float = 0.0
    delta0: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATED_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not math.isfinite(self.d):
            raise ValueError("perturbation magnitude must be finite")
        bound = _D_BOUND[self.kind]
        if self.kind == "integer":
            if self.d != 0.0:
                raise ValueError("integer lattice takes d = 0")
        elif abs(self.d) >= bound:
            raise ValueError(
                f"|d| = {abs(self.d)} >= {bound} collapses the separation "
                f"of the {self.kind} family"
            )
        if self.kind == "signed" and abs(self.delta0) > 1.0:
            raise ValueError("signed family requires |delta0| <= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def delta(self, k) -> np.ndarray:
        """The pattern's perturbation ``delta_k`` at integer indices ``k``.

        The random kind has no pattern: its seeded draws exist only inside
        a window built by :func:`make_family`.
        """
        k = np.asarray(k)
        if self.kind == "integer":
            return np.zeros(k.shape)
        if self.kind == "constant_shift":
            return np.full(k.shape, self.d)
        if self.kind == "signed":
            return np.where(k == 0, self.delta0, np.sign(k) * self.d)
        if self.kind == "alternating":
            return np.where(k % 2 == 0, self.d, -self.d)
        raise ValueError("random kind has no pattern; use make_family")

    def tag(self) -> str:
        if self.kind == "integer":
            return "integer"
        if self.kind == "signed":
            return f"signed(d={self.d:g},delta0={self.delta0:g})"
        if self.kind == "random":
            return f"random(d={self.d:g},seed={self.seed})"
        return f"{self.kind}(d={self.d:g})"


@dataclass(frozen=True)
class Node:
    index: int
    position: complex


class NodeSequence:
    """Finite window of distinct nodes, iterated in ascending index order.

    Immutable after construction; the backing arrays are read-only, so the
    sequence can be shared freely across threads.
    """

    __slots__ = ("indices", "positions", "tag")

    def __init__(self, indices, positions, tag: str = "custom"):
        idx = np.asarray(indices, dtype=np.int64)
        pos = np.asarray(positions, dtype=np.complex128)
        if idx.ndim != 1 or pos.shape != idx.shape:
            raise ValueError("indices and positions must be 1-d and aligned")
        if idx.size == 0:
            raise ValueError("empty sequence")
        if not np.all(np.isfinite(pos.real)) or not np.all(np.isfinite(pos.imag)):
            raise ValueError("non-finite node coordinate")
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        pos = pos[order]
        if np.any(np.diff(idx) == 0):
            k = int(idx[np.flatnonzero(np.diff(idx) == 0)[0]])
            raise ValueError(f"duplicate node index {k}")
        idx.setflags(write=False)
        pos.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("NodeSequence is immutable")

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        for k, z in zip(self.indices, self.positions):
            yield Node(int(k), complex(z))

    def node(self, k: int) -> Node:
        i = np.searchsorted(self.indices, k)
        if i >= len(self) or self.indices[i] != k:
            raise KeyError(f"no node with index {k}")
        return Node(int(k), complex(self.positions[i]))

    def array_offset(self, k) -> np.ndarray:
        """Map node indices to positions-array offsets."""
        k = np.asarray(k)
        i = np.searchsorted(self.indices, k)
        i = np.clip(i, 0, len(self) - 1)
        if np.any(self.indices[i] != k):
            bad = np.asarray(k)[self.indices[i] != k]
            raise KeyError(f"no node with index {bad.ravel()[0]}")
        return i

    @property
    def half_width(self) -> int:
        """Window half-size K (largest |index|)."""
        return int(max(-self.indices[0], self.indices[-1]))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.positions.imag == 0.0))

    @property
    def index_contiguous(self) -> bool:
        return bool(
            self.indices[0] == -self.half_width
            and self.indices[-1] == self.half_width
            and self.indices.size == 2 * self.half_width + 1
        )

    def real_span(self) -> tuple[float, float]:
        xi = self.positions.real
        return float(xi.min()), float(xi.max())

    def restrict(self, k_max: int) -> "NodeSequence":
        """Sub-window with |index| <= k_max (no regeneration)."""
        keep = np.abs(self.indices) <= k_max
        if not np.any(keep):
            raise ValueError("restriction leaves no nodes")
        return NodeSequence(self.indices[keep], self.positions[keep],
                            tag=self.tag)


def integer_lattice(K: int) -> NodeSequence:
    """Nodes at the integers k for |k| <= K."""
    return make_family(FamilySpec("integer"), K)


def make_family(spec: FamilySpec, K: int) -> NodeSequence:
    """Build ``lambda_k = k + delta_k`` for |k| <= K per the family recipe.

    Deterministic given ``(spec, K)``; the random kind draws its
    perturbations from a generator seeded with ``spec.seed``.
    """
    if K < 1:
        raise ValueError("window half-size K must be >= 1")
    k = np.arange(-K, K + 1, dtype=np.int64)
    if spec.kind == "random":
        rng = np.random.default_rng(spec.seed)
        delta = rng.uniform(-spec.d, spec.d, size=k.size)
    else:
        delta = spec.delta(k)
    return NodeSequence(k, k + delta + 0j, tag=spec.tag())


def load_nodes(path) -> NodeSequence:
    """Read a node sequence from CSV with header ``k,re,im``.

    Rows need not be sorted; the loader orders by index.  Duplicate indices,
    non-finite coordinates and malformed rows are rejected.
    """
    indices, positions = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty sequence")
        if [h.strip() for h in header] != ["k", "re", "im"]:
            raise ValueError(f"expected header 'k,re,im', got {header!r}")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValueError(f"malformed row {row!r}")
            try:
                k = int(row[0])
                re, im = float(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"malformed row {row!r}") from exc
            indices.append(k)
            positions.append(complex(re, im))
    if not indices:
        raise ValueError("empty sequence")
    return NodeSequence(indices, positions, tag="file")


def save_nodes(seq: NodeSequence, path) -> None:
    """Write the ``k,re,im`` CSV for a node sequence."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "re", "im"])
        for node in seq:
            writer.writerow([node.index, repr(float(node.position.real)),
                             repr(float(node.position.imag))])


def separation(seq: NodeSequence) -> float:
    """Minimum pairwise distance over the window.

    Nodes are sorted by real part and compared with the node ``s`` places
    on, for s = 1, 2, ...  The real gaps of shift s never shrink as s grows,
    so the scan stops, exactly, once the smallest of them reaches the
    running minimum.
    """
    if len(seq) < 2:
        raise ValueError("separation needs at least two nodes")
    pos = seq.positions[np.argsort(seq.positions.real, kind="stable")]
    best = math.inf
    for s in range(1, pos.size):
        if np.min(pos.real[s:] - pos.real[:-s]) >= best:
            break
        best = min(best, float(np.min(np.abs(pos[s:] - pos[:-s]))))
    return best


def relative_density(seq: NodeSequence, r_candidates) -> float | None:
    """Smallest candidate r so every square Q(x, r) on the real span meets
    the sequence, or None when no candidate works.

    A square Q(x, r) contains a node iff some node has |eta| <= r and
    |xi - x| <= r, so coverage at scale r reduces to the worst real-axis
    distance to an eligible node, which is computed exactly from gaps.
    """
    r_candidates = sorted(float(r) for r in r_candidates)
    if not r_candidates or r_candidates[0] <= 0:
        raise ValueError("candidates must be positive ascending")
    lo, hi = seq.real_span()
    eta = np.abs(seq.positions.imag)
    xi = seq.positions.real
    for r in r_candidates:
        ok = eta <= r
        if not np.any(ok):
            continue
        xs = np.sort(xi[ok])
        worst = max(xs[0] - lo, hi - xs[-1])
        if xs.size > 1:
            worst = max(worst, float(np.max(np.diff(xs))) / 2.0)
        if worst <= r:
            return r
    return None
