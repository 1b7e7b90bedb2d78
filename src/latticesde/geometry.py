"""Random geometric particle configurations and their neighborhood structure.

A configuration is a finite set of points in R^d together with the closed-ball
neighbor relation at interaction radius rho.  Points are sampled from a
homogeneous Poisson process on a centered box.  The relation is stored once,
as a sparse band in compressed-row form, built with a vectorized cell list so
construction stays near-linear in the number of points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._table import read_table, write_table

__all__ = [
    "Configuration",
    "check_sampling_args",
    "configuration_bytes",
    "sample_configuration",
    "configuration_from_points",
    "build_neighborhoods",
    "estimate_growth_constant",
    "exhaustion_sequence",
    "save_configuration",
    "load_configuration",
]

_SUPPORTED_DIMS = (1, 2, 3)


@dataclass(frozen=True, eq=False)
class Configuration:
    """Finite point set with its closed-ball neighbor band.

    The band is compressed-row: the neighbors of site ``x`` (itself included)
    are ``indices[indptr[x]:indptr[x + 1]]``, sorted ascending, and
    ``distances`` holds the matching pair distances.  Instances are immutable
    and safe to share across threads.
    """

    dim: int
    points: np.ndarray            # shape (n, dim)
    rho: float
    box_halfwidth: float
    seed: int                     # -1 when built directly from points
    indptr: np.ndarray = field(repr=False)      # shape (n + 1,)
    indices: np.ndarray = field(repr=False)     # shape (nnz,)
    distances: np.ndarray = field(repr=False)   # shape (nnz,)
    radii: np.ndarray = field(repr=False)       # Euclidean |x| per site

    @property
    def n_sites(self) -> int:
        return self.points.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """n_x = |B_x|, the row lengths of the band."""
        return np.diff(self.indptr)

    @cached_property
    def rows(self) -> np.ndarray:
        """Row (site) index of every band entry."""
        return np.repeat(np.arange(self.n_sites, dtype=np.int64), self.degrees)

    def row(self, x: int) -> slice:
        """Band positions of site x: its neighbors are ``indices[row(x)]``."""
        return slice(int(self.indptr[x]), int(self.indptr[x + 1]))


def _check_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_sampling_args(intensity, box_halfwidth, dim, rho, seed) -> None:
    """Raise ValueError unless :func:`sample_configuration` accepts the arguments."""
    for name, value in (("intensity", intensity), ("box_halfwidth", box_halfwidth), ("rho", rho)):
        _check_finite(name, value)
    if dim not in _SUPPORTED_DIMS:
        raise ValueError(f"dim must be one of {_SUPPORTED_DIMS}, got {dim}")
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    if box_halfwidth <= 0 or rho <= 0:
        raise ValueError("box_halfwidth and rho must be > 0")
    if not math.isfinite(max(box_halfwidth, math.sqrt(dim)) / rho):  # coordinates in rho units
        raise ValueError(f"rho = {rho!r} is too small: the window measured in rho overflows")
    if not 0 <= seed < 2**64:  # the noise streams key on the seed's 64 low bits
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def configuration_bytes(intensity, box_halfwidth, dim, rho) -> float:
    """Bytes of the points and band :func:`sample_configuration` builds, at the mean count.

    The count is Poisson(intensity (2S)^d) and a site's degree about one plus
    intensity times the volume of a rho-ball (at most the count); each band
    entry takes an index and a distance.  Sampling and the cell list need
    more than this for a while, so it is a lower bound.  inf when the mean
    leaves the float range.
    """
    try:
        mean = intensity * (2.0 * box_halfwidth) ** dim
        ball = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * rho**dim
    except OverflowError:
        return math.inf
    return 8.0 * mean * (dim + 2.0 * min(mean, 1.0 + intensity * ball))


def _first_copies(points) -> np.ndarray:
    """Index of the first copy of every distinct point, in sorted point order."""
    order = np.lexsort(points.T[::-1])  # stable: each run of copies starts at its first
    ordered = points[order]
    first = np.ones(order.size, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    return order[first]


def sample_configuration(intensity, box_halfwidth, dim, rho, seed) -> Configuration:
    """Sample a Poisson configuration on the box [-S, S]^d and build its band.

    The site count is Poisson(intensity * (2S)^d) and points are i.i.d.
    uniform in the box.  Exact duplicate points (a probability-zero event that
    float rounding can nonetheless produce) are resampled so the point set is
    genuinely a set: every later copy of a point is redrawn, in index order.
    Fully deterministic for a fixed seed.
    """
    check_sampling_args(intensity, box_halfwidth, dim, rho, seed)
    rng = np.random.default_rng(seed)
    volume = (2.0 * box_halfwidth) ** dim
    count = int(rng.poisson(intensity * volume))
    points = rng.uniform(-box_halfwidth, box_halfwidth, size=(count, dim))
    while count > 1:
        first = _first_copies(points)
        if first.size == count:
            break
        later = np.setdiff1d(np.arange(count), first, assume_unique=True)
        points[later] = rng.uniform(-box_halfwidth, box_halfwidth, size=(later.size, dim))
    return _from_distinct_points(points, rho, box_halfwidth, seed)


def configuration_from_points(points, rho, box_halfwidth=None, seed=-1) -> Configuration:
    """Build a Configuration from explicit coordinates (used for lattices etc.)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        points = points.reshape(0, points.shape[1] if points.ndim == 2 and points.shape[1] else 1)
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    if rho <= 0 or not math.isfinite(rho):
        raise ValueError("rho must be positive and finite")
    if _first_copies(points).size < points.shape[0]:
        raise ValueError("points must be pairwise distinct")
    if box_halfwidth is None:
        box_halfwidth = float(np.max(np.abs(points))) if points.size else 1.0
        box_halfwidth = max(box_halfwidth, 1.0)
    return _from_distinct_points(points, rho, box_halfwidth, seed)


def _from_distinct_points(points, rho, box_halfwidth, seed) -> Configuration:
    """The Configuration of finite, pairwise distinct ``points`` (n, dim) and a finite rho > 0."""
    indptr, indices, distances = build_neighborhoods(points, rho)
    radii = np.sqrt(np.sum(points * points, axis=1))
    return Configuration(
        dim=points.shape[1],
        points=points,
        rho=float(rho),
        box_halfwidth=float(box_halfwidth),
        seed=int(seed),
        indptr=indptr,
        indices=indices,
        distances=distances,
        radii=radii,
    )


def build_neighborhoods(points, rho):
    """Closed-ball neighbor band: B_x = {y : |x - y| <= rho}, x included.

    Returns ``(indptr, indices, distances)`` in compressed-row form, indices
    sorted within each row.  A cell list with cells just wider than rho:
    sites are sorted by cell, and each of the 3^d neighboring cells is
    located for all sites at once by binary search, so only nearby pairs
    are ever compared; each cell's pairs are cut to rho before the cells are
    joined.  Ties at distance exactly rho are included.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = points.shape
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)

    # The cells are wider than rho by more than the rounding of the quotients
    # below, so no pair whose computed distance is at most rho lies two apart.
    # Per axis, rank the occupied cell coordinates so that adjacent cells stay
    # one apart and farther ones two apart; the linear cell ids then stay small
    # however far the points spread.  The margin of 1 keeps every offset cell
    # id inside the grid, so no two cells alias.
    width = rho * (1.0 + 8.0 * np.finfo(float).eps * (np.max(np.abs(points)) / rho + 2.0))
    coords = np.empty((n, dim), dtype=np.int64)
    shape = []
    for k in range(dim):
        cells, inverse = np.unique(np.floor(points[:, k] / width), return_inverse=True)
        ranks = np.concatenate(([1], 1 + np.cumsum(np.minimum(np.diff(cells), 2))))
        coords[:, k] = ranks.astype(np.int64)[inverse]
        shape.append(int(ranks[-1]) + 2)
    strides = np.cumprod([1] + shape[:0:-1])[::-1].astype(np.int64)
    # work in cell order: the searches below then get ascending keys
    order = np.argsort(coords @ strides, kind="stable")
    cell_id = coords[order] @ strides
    ordered = points[order]

    sites = np.arange(n, dtype=np.int64)
    pairs = []   # per offset cell, the (row, column, squared distance) within rho
    for offset in itertools.product((-1, 0, 1), repeat=dim):
        target = cell_id + np.asarray(offset, dtype=np.int64) @ strides
        start = np.searchsorted(cell_id, target, side="left")
        count = np.searchsorted(cell_id, target, side="right") - start
        row = np.repeat(sites, count)
        col = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(row.size)
        diff = ordered[col] - ordered[row]
        d2 = np.einsum("ij,ij->i", diff, diff)
        inside = d2 <= rho * rho
        pairs.append((row[inside], col[inside], d2[inside]))
    rows, cols, d2 = (np.concatenate(part) for part in zip(*pairs))
    rows, cols = order[rows], order[cols]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # the pairs are distinct, so one sort of the key row * n + column orders
    # them by row, then column; the key is formed in place of the rows
    rows *= n
    rows += cols
    band = np.argsort(rows)
    return indptr, cols[band], np.sqrt(d2[band])


def estimate_growth_constant(config: Configuration) -> float:
    """Smallest constant N such that n_x <= N * max(log(1+|x|), log 2) holds.

    The log 2 floor regularizes sites near the origin, where log(1+|x|)
    vanishes and the raw ratio would blow up; with the floor the returned
    constant is finite and the guarded inequality is checkable at every site.
    """
    if config.n_sites == 0:
        raise ValueError("growth constant is undefined for an empty configuration")
    denom = np.maximum(np.log1p(config.radii), math.log(2.0))
    return float(np.max(config.degrees / denom))


def exhaustion_sequence(config: Configuration, levels: int):
    """Nested site subsets Lambda_1 c ... c Lambda_k filling the whole window.

    Level j keeps the sites with |x| <= j * (S / k); the last level is always
    the full index set.  Returned as sorted index arrays.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    out = []
    step = config.box_halfwidth / levels
    all_sites = np.arange(config.n_sites, dtype=np.int64)
    for j in range(1, levels + 1):
        if j == levels:
            out.append(all_sites.copy())
        else:
            out.append(all_sites[config.radii <= j * step])
    return out


def save_configuration(config: Configuration, path) -> None:
    """Write the text table: header 'd rho S seed', then one 'index x1 .. xd' row per site."""
    header = f"{config.dim} {config.rho!r} {config.box_halfwidth!r} {config.seed}"
    keys = [f"{i} " for i in range(config.n_sites)]
    write_table(path, header, [("", keys, *config.points.T)], sep=" ")


def load_configuration(path) -> Configuration:
    """Read the text table, each row placed by its index; the neighbor band is recomputed."""
    (dim, rho, box_halfwidth, seed), _, points = read_table(path, tuple("iffi"), "s", None, sep=" ")
    if dim < 1:  # rows of no coordinates would load as an empty configuration
        raise ValueError(f"{path}: dimension {dim} is below 1")
    return configuration_from_points(points, rho, box_halfwidth, seed=seed)
