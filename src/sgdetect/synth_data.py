"""Synthetic training data: random piecewise functions and labeled samples.

Training functions are pairs of random Legendre expansions glued along the
zero-level set of a random cut (linear, spherical, or polynomial):

    g(x) = g1(x) if f(x) >= 0 else g2(x),
    g_j(x) = sum over multi-indices h with |h|_1 <= 4, h_i >= 1 of
             c_h * prod_i P_{h_i}((x_i + 1) / 2),

with coefficients drawn from a normal with mean 0 and variance 10 (the
convention is recorded in the dataset header and can be flipped to
"stddev").  Labeled (g', p) samples are produced by running the detection
engine with the deterministic z-detector and recording every grid visit;
the heavily imbalanced all-zero samples are then thinned, and the abs-max
preprocessing maps evaluation vectors into [-1, 1]^N for the models.  A call
evaluates P_0 ... P_top per axis once into a :func:`legendre_table`, which g1
and g2 share; the sums keep one fixed operation order, so a value has the same
bits whichever table depth it is expanded from.

The samples travel as one :class:`Samples`: row-aligned (S, N) ``inputs``
(float64, inf at out-of-domain slots) and ``labels`` (uint8), whose rows
balancing and splitting select and whose arrays the trainer reads as they are.
"""

from __future__ import annotations

import concurrent.futures
import csv
import itertools
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from sgdetect.detectors import (
    CutFunction,
    LinearCut,
    PolynomialCut,
    SphericalCut,
    ZLevelDetector,
)
from sgdetect.errors import (
    DegenerateDatasetError,
    MalformedFileError,
    read_document,
    write_document,
)
from sgdetect.grid_graph import GridGraph
from sgdetect.sparse_grid import Box, SparseGrid, multi_index_set

DATASET_FILE_VERSION = 1

#: coefficient std under each reading of the paper's N(0, 10); the default reads variance 10
COEFF_STD_VARIANCE = float(np.sqrt(10.0))
COEFF_STD = {"variance": COEFF_STD_VARIANCE, "stddev": 10.0}

#: total degree of the random Legendre expansions (multi-index sum cap)
PIECE_DEGREE = 4

logger = logging.getLogger(__name__)


def legendre_table(x: np.ndarray, top: int) -> list[np.ndarray]:
    """P_0 ... P_top of u = (x + 1) / 2 by the three-term recurrence, run once.

    table[d] is axis-major, (n, ...) for x of shape (..., n), so table[d][i] is
    P_d(u_i) in one contiguous block.  Rows are separate arrays of x's size: one
    (top + 1)-row block raised glibc's mmap threshold and slowed later training."""
    x = np.asarray(x, dtype=np.float64)
    u = np.add(x.transpose(-1, *range(x.ndim - 1)), 1.0,
               out=np.empty((x.shape[-1], *x.shape[:-1])))
    u /= 2.0
    table = [np.ones_like(u), u]
    for k in range(1, top):
        table.append(((2 * k + 1) * u * table[k] - k * table[k - 1]) / (k + 1))
    return table


@dataclass(frozen=True)
class LegendrePiece:
    """Random Legendre expansion over the total-degree multi-index set.

    Evaluation uses the mapped argument (x + 1) / 2, so the pieces are
    polynomials on [-1, 1]^n with coefficients attached to multi-indices
    h in N_+^n, sum(h) <= 4.  :meth:`expand` reads a :func:`legendre_table`
    of any depth >= the top degree and adds c * P_{h_1}(u_1) * P_{h_2}(u_2) ...
    to zeros in index order, so the values do not depend on the depth, to the bit.
    """

    dim: int
    indices: tuple[tuple[int, ...], ...]
    coeffs: tuple[float, ...]

    def expand(self, table: list[np.ndarray]) -> np.ndarray:
        out = np.zeros(table[0].shape[1:])
        term = np.empty_like(out)
        for h, c in zip(self.indices, self.coeffs):
            np.multiply(table[h[0]][0], c, out=term)
            for i in range(1, len(h)):
                term *= table[h[i]][i]
            out += term
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.expand(legendre_table(x, max(map(max, self.indices))))


def sample_legendre_piece(n: int, rng: np.random.Generator,
                          coeff_std: float = COEFF_STD_VARIANCE) -> LegendrePiece:
    """Draw i.i.d. normal coefficients for every admissible multi-index."""
    indices = tuple(multi_index_set("sum", PIECE_DEGREE, n))
    coeffs = tuple(float(c) for c in rng.normal(0.0, coeff_std, size=len(indices)))
    return LegendrePiece(dim=n, indices=indices, coeffs=coeffs)


@dataclass(frozen=True)
class PiecewiseFunction:
    """g(x) = g1(x) where f(x) >= 0, else g2(x); discontinuities lie in {f = 0}."""

    g1: LegendrePiece
    g2: LegendrePiece
    cut: CutFunction

    @property
    def dim(self) -> int:
        return self.g1.dim

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # one table, to the larger top degree, feeds both pieces
        table = legendre_table(x, max(map(max, self.g1.indices + self.g2.indices)))
        return np.where(self.cut(x) >= 0.0, self.g1.expand(table), self.g2.expand(table))


CUT_KINDS = ("linear", "spherical", "polynomial")


def estimate_max_abs(poly, n_free: int, rng: np.random.Generator) -> float:
    """Estimate max |poly| over [-1,1]^n_free: 100,000 Monte Carlo points plus
    the {-1, 0, 1}^n_free tensor of corner/mid points."""
    pts = rng.uniform(-1.0, 1.0, size=(100_000, n_free))
    best = float(np.max(np.abs(poly(pts))))
    corners = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n_free)))
    best = max(best, float(np.max(np.abs(poly(corners)))))
    return best


def sample_cut(kind: str, n: int, rng: np.random.Generator,
               spherical_radius_mode: str = "min",
               coeff_std: float = COEFF_STD_VARIANCE) -> CutFunction:
    """Draw a random interface of the requested family.

    linear:     eta(x) = x . (w/|w|) + b,  w_i ~ N(0,1), b ~ U(-1,1)
    spherical:  sigma(x) = |x - c| - r,    c_i ~ U(-1,1), r = min{0.2, rho},
                rho ~ U(0, sqrt(n))  (the literal min; pass
                spherical_radius_mode="max" for the uncapped alternative)
    polynomial: pi(x) = C * Pi(xi)/max|Pi| - x_axis, C ~ U(0.75, 1.15),
                axis uniform, Pi a Legendre expansion over the other
                coordinates with normal coefficients.
    """
    if kind == "linear":
        w = rng.normal(0.0, 1.0, size=n)
        while not np.any(w):
            w = rng.normal(0.0, 1.0, size=n)
        b = float(rng.uniform(-1.0, 1.0))
        return LinearCut(w, b)
    if kind == "spherical":
        c = rng.uniform(-1.0, 1.0, size=n)
        rho = float(rng.uniform(0.0, np.sqrt(n)))
        if spherical_radius_mode == "min":
            r = min(0.2, rho)
        elif spherical_radius_mode == "max":
            r = max(0.2, rho)
        else:
            raise ValueError(f"unknown spherical_radius_mode {spherical_radius_mode!r}")
        return SphericalCut(c, r)
    if kind == "polynomial":
        if n < 2:
            raise ValueError("polynomial cut needs n >= 2")
        scale = float(rng.uniform(0.75, 1.15))
        axis = int(rng.integers(0, n))
        poly = sample_legendre_piece(n - 1, rng, coeff_std=coeff_std)
        max_abs = estimate_max_abs(poly, n - 1, rng)
        return PolynomialCut(poly=poly, scale=scale, axis=axis, max_abs=max_abs, dim=n)
    raise ValueError(f"unknown cut kind {kind!r}; expected one of {CUT_KINDS}")


def sample_piecewise_function(kind: str, n: int, rng: np.random.Generator,
                              spherical_radius_mode: str = "min",
                              coeff_std: float = COEFF_STD_VARIANCE) -> PiecewiseFunction:
    g1 = sample_legendre_piece(n, rng, coeff_std=coeff_std)
    g2 = sample_legendre_piece(n, rng, coeff_std=coeff_std)
    cut = sample_cut(kind, n, rng, spherical_radius_mode=spherical_radius_mode,
                     coeff_std=coeff_std)
    return PiecewiseFunction(g1=g1, g2=g2, cut=cut)


# ---------------------------------------------------------------------------
# preprocessing


def preprocess_gamma_batch(g: np.ndarray) -> np.ndarray:
    """Abs-max rescaling of each row of a (K, N) batch into [-1, 1]^N.

    A row whose (finite) entries are all zero stays zero; any other row is
    divided by max{|max|, |min|} over its finite entries.  Sentinel slots
    (non-finite) are excluded from the scale and come out as exactly 0.
    """
    g = np.asarray(g, dtype=np.float64)
    finite = np.isfinite(g)
    # one full-size buffer: |g| with sentinels at 0 gives the scale, then the result
    out = np.abs(g)
    out[~finite] = 0.0
    scale = out.max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    np.divide(g, scale[:, None], out=out, where=finite)
    return out


# ---------------------------------------------------------------------------
# samples, datasets, splits


@dataclass(frozen=True)
class Samples:
    """Labelled grid visits as row-aligned arrays: row i of ``inputs`` holds
    one visit's raw g evaluations, row i of ``labels`` its binary labels.
    ``samples[rows]`` selects rows (an index array copies them)."""

    inputs: np.ndarray  # (S, N) float64, inf sentinel at out-of-domain slots
    labels: np.ndarray  # (S, N) uint8

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, rows) -> "Samples":
        return Samples(self.inputs[rows], self.labels[rows])


@dataclass
class DatasetSplit:
    train: Samples
    validation: Samples
    test: Samples


def sample_functions(count: int, dim: int, seed: int,
                     coeff_std: float = COEFF_STD_VARIANCE) -> list[PiecewiseFunction]:
    """The training functions: cut kinds round-robin over :data:`CUT_KINDS`,
    function i drawn from the i-th child of ``SeedSequence(seed)``."""
    seeds = np.random.SeedSequence(seed).spawn(count)
    return [sample_piecewise_function(CUT_KINDS[i % 3], dim, np.random.default_rng(s),
                                      coeff_std=coeff_std)
            for i, s in enumerate(seeds)]


def generate_dataset(grid: SparseGrid, graph: GridGraph, detector_t: int,
                     functions: Sequence[PiecewiseFunction],
                     lambda_min, tau: float = 0.5,
                     domain: Box | None = None,
                     n_jobs: int = 1) -> tuple[Samples, dict]:
    """Run the engine on each function and record every grid visit.

    Labels come from the z-detector on the function's own cut; inputs are
    the engine's g evaluations on the same grid instance (sentinels at
    out-of-domain slots, each point evaluated once).  Returns the samples
    plus generation stats.  Rows are ordered by function index, then
    visit order, so the result is deterministic regardless of ``n_jobs``.
    Each function logs one INFO record with its sample count and skipped
    NaN visits.
    """
    if domain is None:
        domain = Box.cube((Fraction(0),) * grid.dim, Fraction(2))
    args = [(grid, graph, detector_t, fn, lambda_min, tau, domain) for fn in functions]
    if n_jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_generate_for_function, args))
    else:
        results = [_generate_for_function(a) for a in args]
    for i, (fn_samples, fn_skipped) in enumerate(results, start=1):
        logger.info("function %d/%d: %d samples, %d skipped NaN visits", i, len(functions),
                    len(fn_samples), fn_skipped)
    samples = Samples(np.concatenate([s.inputs for s, _ in results]),
                      np.concatenate([s.labels for s, _ in results]))
    stats = {
        "functions": len(functions),
        "samples": len(samples),
        "skipped_nan_visits": sum(skipped for _, skipped in results),
    }
    return samples, stats


def _generate_for_function(args) -> tuple[Samples, int]:
    from sgdetect.engine import EngineConfig, run_batched

    grid, graph, detector_t, fn, lambda_min, tau, domain = args
    detector = ZLevelDetector(fn.cut, detector_t)
    config = EngineConfig(lambda_min=lambda_min, tau=tau, domain=domain,
                          boundary_policy="clip-stop")
    inputs: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    skipped = 0

    def record(task, sample, p_raw):
        nonlocal skipped
        if np.isnan(sample.evaluations).any():
            skipped += 1
            return
        inputs.append(sample.evaluations)
        labels.append((p_raw >= tau) & sample.in_domain)

    run_batched(g=fn, grid=grid, graph=graph, detector=detector,
                initial=[(domain.center, domain.edge)], config=config,
                visit_hook=record)
    shape = (len(inputs), grid.n_points)
    return Samples(np.array(inputs, dtype=np.float64).reshape(shape),
                   np.array(labels, dtype=np.uint8).reshape(shape)), skipped


def balance_dataset(samples: Samples, rng: np.random.Generator) -> Samples:
    """Thin the all-zero rows down to D0' = max_i #{rows with i troubled}.

    Keeps every row with a nonzero label, in order, then the kept all-zero
    rows in order; when that is every row as it stands (common in 4D), the
    input itself, uncopied.  Raises :class:`DegenerateDatasetError` when no
    row has a nonzero label.
    """
    n_troubled = samples.labels.sum(axis=1, dtype=np.int64)
    nonzero = np.flatnonzero(n_troubled)
    zeros = np.flatnonzero(n_troubled == 0)
    if not nonzero.size:
        raise DegenerateDatasetError("every sample has an all-zero label vector")
    keep_zero = int(np.bincount(n_troubled[nonzero]).max())
    if keep_zero < len(zeros):
        zeros = zeros[np.sort(rng.choice(len(zeros), size=keep_zero, replace=False))]
    keep = np.concatenate([nonzero, zeros])
    return samples if np.array_equal(keep, np.arange(len(samples))) else samples[keep]


def split_dataset(samples: Samples, rng: np.random.Generator) -> DatasetSplit:
    """Shuffle, then carve off floor(30%) test and floor(80% of rest) train."""
    if len(samples) < 10:
        raise DegenerateDatasetError(f"need at least 10 samples to split, got {len(samples)}")
    order = rng.permutation(len(samples))
    n_test = int(0.3 * len(samples))
    rest = len(samples) - n_test
    n_train = int(0.8 * rest)
    return DatasetSplit(
        test=samples[order[:n_test]],
        train=samples[order[n_test : n_test + n_train]],
        validation=samples[order[n_test + n_train :]],
    )


# ---------------------------------------------------------------------------
# dataset files: flat binary + plain-text sidecar header, CSV export


@dataclass
class Dataset:
    """Stacked samples plus the header needed to reproduce them."""

    grid_key: str
    detector: str
    seed: int
    coeff_convention: str
    inputs: np.ndarray  # (S, N) float64
    labels: np.ndarray  # (S, N) uint8
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_points(self) -> int:
        return self.inputs.shape[1]

    @staticmethod
    def from_samples(samples: Samples, grid_key: str, detector: str, seed: int,
                     coeff_convention: str = "normal(0, variance=10)",
                     meta: dict | None = None) -> "Dataset":
        return Dataset(grid_key=grid_key, detector=detector, seed=seed,
                       coeff_convention=coeff_convention, inputs=samples.inputs,
                       labels=samples.labels, meta=meta or {})


def dataset_paths(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        return p.with_suffix(".bin"), p
    if p.suffix == ".bin":
        return p, p.with_suffix(".json")
    return p.with_suffix(p.suffix + ".bin"), p.with_suffix(p.suffix + ".json")


def save_dataset(ds: Dataset, path) -> tuple[Path, Path]:
    """Write ``<path>.bin`` (inputs then labels, row-major) and a JSON sidecar."""
    bin_path, hdr_path = dataset_paths(path)
    bin_path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "kind": "detector-dataset",
        "version": DATASET_FILE_VERSION,
        "grid": ds.grid_key,
        "detector": ds.detector,
        "seed": ds.seed,
        "coefficients": ds.coeff_convention,
        "n_samples": int(ds.n_samples),
        "n_points": int(ds.n_points),
        "layout": "float64[n_samples*n_points] inputs, then uint8[n_samples*n_points] labels",
        "meta": ds.meta,
    }
    with open(bin_path, "wb") as fh:
        np.ascontiguousarray(ds.inputs, dtype="<f8").tofile(fh)
        np.ascontiguousarray(ds.labels, dtype=np.uint8).tofile(fh)
    write_document(hdr_path, header, sort_keys=True)
    return bin_path, hdr_path


def load_dataset(path) -> Dataset:
    bin_path, hdr_path = dataset_paths(path)
    header = read_document(hdr_path, "detector-dataset", DATASET_FILE_VERSION)
    for key in ("grid", "detector", "seed", "coefficients", "n_samples", "n_points"):
        if key not in header:
            raise MalformedFileError(f"{hdr_path} has no {key!r} entry")
    s, n = header["n_samples"], header["n_points"]
    for key, value in (("n_samples", s), ("n_points", n)):
        if type(value) is not int or value < 0:
            raise MalformedFileError(f"{hdr_path}: {key} {value!r} is not a non-negative integer")
    size = Path(bin_path).stat().st_size
    if size != s * n * 9:
        raise MalformedFileError(f"{bin_path} holds {size} bytes; its header needs {s * n * 9}")
    with open(bin_path, "rb") as fh:
        inputs = np.fromfile(fh, dtype="<f8", count=s * n).reshape(s, n)
        labels = np.fromfile(fh, dtype=np.uint8, count=s * n).reshape(s, n)
    return Dataset(
        grid_key=header["grid"],
        detector=header["detector"],
        seed=header["seed"],
        coeff_convention=header["coefficients"],
        inputs=inputs,
        labels=labels,
        meta=header.get("meta", {}),
    )


def export_dataset_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"g{i}" for i in range(ds.n_points)]
                        + [f"p{i}" for i in range(ds.n_points)])
        writer.writerows(x + y for x, y in zip(ds.inputs.tolist(), ds.labels.tolist()))
