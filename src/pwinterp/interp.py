"""Interpolation from nonuniform samples via the normalized node basis.

Finite-support data a_k on the nodes is interpolated by

    f(x) = sum_k a_k / S'(lambda_k) * S(x) / (x - lambda_k),

the Lagrange-type series normalized by the generating function's node
derivatives.  Grid evaluation, the weighted data norm, the stability ratio
and a closed-form round trip live here, with the sample CSV format.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .genfn import GeneratingFunction, as_exponents

__all__ = [
    "SampleSet",
    "GridSpec",
    "GridFunction",
    "load_samples",
    "save_samples",
    "weighted_data_norm",
    "reconstruct",
    "stability_ratio",
    "RoundTripReport",
    "round_trip",
]


@dataclass(frozen=True)
class SampleSet:
    """Finite interpolation data {(k, a_k)} keyed by node index."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        val = np.asarray(self.values, dtype=np.complex128).ravel()
        if idx.size != val.size or idx.size == 0:
            raise ValueError("indices and values must align and be nonempty")
        if np.any(np.diff(np.sort(idx)) == 0):
            raise ValueError("duplicate sample index")
        if not np.all(np.isfinite(val.real)) or not np.all(np.isfinite(val.imag)):
            raise ValueError("non-finite sample value")
        idx_c = idx.copy(); idx_c.setflags(write=False)
        val_c = val.copy(); val_c.setflags(write=False)
        object.__setattr__(self, "indices", idx_c)
        object.__setattr__(self, "values", val_c)

    def __len__(self):
        return int(self.indices.size)

    @classmethod
    def unit(cls, k: int) -> "SampleSet":
        return cls(np.array([k]), np.array([1.0 + 0j]))


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid [x_min, x_max] with the given step (endpoint included
    when it lands on the grid)."""

    x_min: float
    x_max: float
    step: float

    def __post_init__(self):
        if not (np.isfinite([self.x_min, self.x_max, self.step]).all()
                and self.step > 0 and self.x_max > self.x_min):
            raise ValueError("need finite x_min < x_max and a finite "
                             "positive step")

    def count(self) -> float:
        """Number of grid points, as a float, so that a grid too large to
        build can still be sized."""
        span = (self.x_max - self.x_min) / self.step * (1 + 1e-12)
        return float(np.floor(span)) + 1.0

    def points(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(int(self.count()))

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be xmin:xmax:step")
        return cls(float(parts[0]), float(parts[1]), float(parts[2]))


@dataclass(frozen=True)
class GridFunction:
    """Complex values on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray
    step: float

    def __post_init__(self):
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must align")


def load_samples(path) -> SampleSet:
    """Read samples from CSV with header ``k,re_a,im_a``."""
    idx, vals = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["k", "re_a", "im_a"]:
            raise ValueError("expected header 'k,re_a,im_a'")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValueError(f"malformed row {row!r}")
            idx.append(int(row[0]))
            vals.append(complex(float(row[1]), float(row[2])))
    if not idx:
        raise ValueError("empty sample set")
    return SampleSet(np.asarray(idx), np.asarray(vals))


def save_samples(s: SampleSet, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "re_a", "im_a"])
        for k, a in zip(s.indices, s.values):
            writer.writerow([int(k), repr(float(a.real)),
                             repr(float(a.imag))])


def weighted_data_norm(s: SampleSet, seq, p) -> float:
    """(sum |a_k|^p e^(-p pi |eta_k|) (1 + |eta_k|))^(1/p)."""
    p = as_exponents(p)
    off = seq.array_offset(s.indices)  # KeyError on unknown index
    eta = np.abs(seq.positions[off].imag)
    terms = np.abs(s.values) ** p.p * np.exp(-p.p * np.pi * eta) * (1 + eta)
    return float(np.sum(terms) ** (1.0 / p.p))


def reconstruct(gf: GeneratingFunction, s: SampleSet,
                grid: GridSpec) -> GridFunction:
    """Evaluate the interpolation series on a grid.

    With c_k = a_k/S'(lambda_k) and n the node nearest x, the series is

        f(x) = D(x) (c_n + (x - lambda_n) sum_{k != n} c_k/(x - lambda_k)),

    D(x) = S(x)/(x - lambda_n) the divided product and c_n = 0 off the
    support.  The nearest node's term never divides by x - lambda_n, so a
    grid point on a support node reproduces its sample, and one on any
    other node gives 0.  Raises :class:`pwinterp.genfn.TrustRadiusError`
    for a support node past the trust radius before it evaluates, and for
    a grid point past it after.
    """
    x = grid.points()
    lam = gf.seq.positions
    off = gf.seq.array_offset(s.indices)
    coef = np.zeros(lam.size, dtype=np.complex128)
    coef[off] = s.values / gf.node_derivatives(s.indices)
    D, n = gf.divided(x)
    series = np.zeros(x.size, dtype=np.complex128)
    for k in off:
        gap = x - lam[k]
        gap[n == k] = np.inf  # node n's own term is coef[n]
        series += coef[k] / gap
    return GridFunction(grid=x, values=D * (coef[n] + (x - lam[n]) * series),
                        step=grid.step)


def stability_ratio(gf: GeneratingFunction, s: SampleSet, p,
                    grid: GridSpec) -> float:
    """Reconstruction L^p norm over the weighted data norm; the norm is
    the Riemann sum (step * sum |f|^p)^(1/p) on the grid."""
    p = as_exponents(p)
    g = reconstruct(gf, s, grid)
    num = float((g.step * np.sum(np.abs(g.values) ** p.p)) ** (1.0 / p.p))
    den = weighted_data_norm(s, gf.seq, p)
    if den == 0.0:
        raise ValueError("zero data norm")
    return num / den


@dataclass(frozen=True)
class RoundTripReport:
    max_abs_error: float     # on the interior grid
    rel_lp_error: float      # relative L^p error on the interior grid
    interior: tuple[float, float]


def round_trip(gf: GeneratingFunction, f_oracle, support_k_max: int,
               grid: GridSpec, p=2.0) -> RoundTripReport:
    """Sample a closed-form function at the nodes, reconstruct, compare.

    The comparison runs on the inner half of the grid extent, dodging the
    unavoidable truncation error at the support edges.
    """
    p = as_exponents(p)
    seq = gf.seq
    keep = np.abs(seq.indices) <= support_k_max
    ks = seq.indices[keep]
    data = np.asarray(f_oracle(seq.positions[keep]), dtype=np.complex128)
    live = data != 0
    if not np.any(live):
        ks, data = ks[:1], data[:1]
    else:
        ks, data = ks[live], data[live]
    rec = reconstruct(gf, SampleSet(ks, data), grid)
    mid = 0.5 * (grid.x_min + grid.x_max)
    half = 0.25 * (grid.x_max - grid.x_min)
    inner = (rec.grid >= mid - half) & (rec.grid <= mid + half)
    truth = np.asarray(f_oracle(rec.grid[inner]), dtype=np.complex128)
    err = rec.values[inner] - truth
    max_abs = float(np.max(np.abs(err)))
    denom = float(np.sum(np.abs(truth) ** p.p) ** (1 / p.p))
    rel = (float(np.sum(np.abs(err) ** p.p) ** (1 / p.p)) / denom
           if denom > 0 else max_abs)
    return RoundTripReport(max_abs_error=max_abs, rel_lp_error=rel,
                           interior=(mid - half, mid + half))
