"""Shared fixtures and independent oracles for the test suite."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import strategies as st

import latticesde as lat


def brute_force_neighbors(points, rho):
    """All-pairs closed-ball neighbor table; the oracle for the cell grid."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    neighbors = []
    for i in range(n):
        d2 = np.sum((points - points[i]) ** 2, axis=1)
        neighbors.append(np.flatnonzero(d2 <= rho * rho).astype(np.int64))
    return neighbors


@st.composite
def small_bands(draw):
    """A few distinct points in d = 1, 2 or 3 and a rho: coordinates on cell
    boundaries (integer multiples of rho, 0 and negative ones included),
    crowding the origin or anywhere within three cells of it, and copies of
    some points moved by rho along an axis."""
    dim = draw(st.integers(1, 3))
    rho = draw(st.sampled_from([0.25, 0.3, 1.0, 2.5]))
    coordinate = st.one_of(
        st.integers(-3, 3).map(lambda k: k * rho),
        # below half an ulp of rho: moved by rho, such a point rounds onto a
        # cell boundary, at a computed distance of exactly rho
        st.floats(-1e-20, 1e-20),
        st.floats(-3.0 * rho, 3.0 * rho),
    )
    points = np.array(draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=10)))
    moved = []
    for i, axis, sign in draw(st.lists(st.tuples(st.integers(0, len(points) - 1),
                                                 st.integers(0, dim - 1),
                                                 st.sampled_from([-1.0, 1.0])), max_size=4)):
        point = points[i].copy()
        point[axis] += sign * rho
        moved.append(point)
    return np.unique(np.concatenate([points, np.reshape(moved, (-1, dim))]), axis=0), rho


def dense_operator(Q):
    """Dense matrix of a banded operator, assembled by scipy.sparse."""
    cfg = Q.config
    n = cfg.n_sites
    return scipy.sparse.csr_matrix((Q.vals, cfg.indices, cfg.indptr), shape=(n, n)).toarray()


def corrupt_table(path, kind, n_sites, index_field=0, sep=","):
    """Rewrite a saved table with one defect; ``index_field`` is the site index's position.

    header: a garbled first line; dim0 (configurations): dimension 0 and rows
    of indices only; cut: the last row cut short; first_rows: only the first 4
    rows kept; no_rows: only the header kept; repeated: row 1 is a copy of row
    0; out_of_range: the last row names site n_sites; wrong_indices: rows
    reversed and renumbered 1..n, so site 0 is missing.
    """
    path = Path(path)
    head, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)

    def with_index(row, index):
        fields = row.split(sep)
        fields[index_field] = str(index)
        return sep.join(fields)

    text = None
    if kind == "header":
        head = "x" + head
    elif kind == "dim0":
        head = "0" + head[1:]
        rows = [row.split(sep)[0] + "\n" for row in rows]
    elif kind == "cut":
        text = head + "".join(rows)[:-3]
    elif kind == "first_rows":
        rows = rows[:4]
    elif kind == "no_rows":
        rows = []
    elif kind == "repeated":
        rows[1] = rows[0]
    elif kind == "out_of_range":
        rows[-1] = with_index(rows[-1], n_sites)
    elif kind == "wrong_indices":
        rows = [with_index(row, i + 1) for i, row in enumerate(reversed(rows))]
    else:
        raise ValueError(kind)
    path.write_text(head + "".join(rows) if text is None else text, encoding="utf-8")


def lattice_1d(lo=-10, hi=10, rho=1.5):
    pts = [[float(j)] for j in range(lo, hi + 1)]
    return lat.configuration_from_points(pts, rho=rho, box_halfwidth=float(hi))


@pytest.fixture(scope="session")
def single_site_config():
    return lat.configuration_from_points([[0.0]], rho=1.0)


@pytest.fixture(scope="session")
def poisson_1d():
    return lat.sample_configuration(2.0, 5.0, 1, 1.0, 42)


@pytest.fixture(scope="session")
def ou_model():
    return lat.make_model("linear", 1.0, sigma0=math.sqrt(2.0), p=2.0)


@pytest.fixture(scope="session")
def ou_ensemble(single_site_config, ou_model):
    """Reference single-site linear run: 1e4 paths, dt = 1e-3, T = 1."""
    zeta = lat.WeightedSeq(single_site_config, np.zeros(1))
    return lat.simulate_truncated(
        ou_model, single_site_config, [0], zeta, 1.0, 1e-3, 10_000, 123,
        scheme="explicit",
    )


@pytest.fixture(scope="session")
def cubic_setup():
    """Cubic model on the 1-d window used by the finite-volume criteria."""
    config = lat.sample_configuration(2.0, 10.0, 1, 1.0, 314)
    model = lat.make_model(
        "cubic", 0.0, kernel="constant", kernel_cap=0.05, rho=1.0,
        sigma0=0.1, sigma1=0.0, sigma2=0.02, p=4.0,
    )
    zeta = lat.WeightedSeq(config, np.ones(config.n_sites))
    return config, model, zeta


@pytest.fixture(scope="session")
def level_ensembles(cubic_setup):
    """Four coupled truncation levels, shared by the moment and Cauchy criteria."""
    config, model, zeta = cubic_setup
    levels = lat.exhaustion_sequence(config, 4)
    from latticesde.sde import simulate_levels

    ensembles = simulate_levels(
        model, config, levels, zeta, 1.0, 0.01, 2000, 271, scheme="tamed",
    )
    return config, model, zeta, levels, ensembles
