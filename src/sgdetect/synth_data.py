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
preprocessing maps evaluation vectors into [-1, 1]^N for the models.
"""

from __future__ import annotations

import concurrent.futures
import csv
import itertools
import json
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
from sgdetect.errors import DegenerateDatasetError, MalformedFileError, read_document
from sgdetect.grid_graph import GridGraph
from sgdetect.sparse_grid import Box, SparseGrid, multi_index_set

#: default coefficient scale: N(0, 10) read as variance 10
COEFF_STD_VARIANCE = float(np.sqrt(10.0))

#: total degree of the random Legendre expansions (multi-index sum cap)
PIECE_DEGREE = 4


def legendre_value(degree: int, u: np.ndarray) -> np.ndarray:
    """Legendre polynomial P_degree(u) by the three-term recurrence."""
    u = np.asarray(u, dtype=np.float64)
    if degree == 0:
        return np.ones_like(u)
    if degree == 1:
        return u.copy()
    p_prev = np.ones_like(u)
    p_cur = u.copy()
    for k in range(1, degree):
        p_next = ((2 * k + 1) * u * p_cur - k * p_prev) / (k + 1)
        p_prev, p_cur = p_cur, p_next
    return p_cur


@dataclass(frozen=True)
class LegendrePiece:
    """Random Legendre expansion over the total-degree multi-index set.

    Evaluation uses the mapped argument (x + 1) / 2, so the pieces are
    polynomials on [-1, 1]^n with coefficients attached to multi-indices
    h in N_+^n, sum(h) <= 4.
    """

    dim: int
    indices: tuple[tuple[int, ...], ...]
    coeffs: tuple[float, ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        u = (x + 1.0) / 2.0
        degrees = sorted({h_i for h in self.indices for h_i in h})
        # per-axis table of P_d(u_i) for every needed degree
        table = {d: legendre_value(d, u) for d in degrees}
        out = np.zeros(u.shape[:-1], dtype=np.float64)
        for h, c in zip(self.indices, self.coeffs):
            term = np.full(u.shape[:-1], c, dtype=np.float64)
            for i, d in enumerate(h):
                term = term * table[d][..., i]
            out += term
        return out


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
        return np.where(self.cut(x) >= 0.0, self.g1(x), self.g2(x))


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


def preprocess_gamma(g: np.ndarray) -> np.ndarray:
    """Abs-max rescaling into [-1, 1]^N.

    Returns the zero vector when every (finite) entry is zero; otherwise
    divides by max{|max|, |min|} over the finite entries.  Sentinel slots
    (non-finite) are excluded from the scale and come out as exactly 0.
    """
    return preprocess_gamma_batch(np.asarray(g, dtype=np.float64)[None, :])[0]


def preprocess_gamma_batch(g: np.ndarray) -> np.ndarray:
    """Row-wise gamma for a (K, N) batch of evaluation vectors."""
    g = np.asarray(g, dtype=np.float64)
    finite = np.isfinite(g)
    masked = np.where(finite, g, 0.0)
    hi = np.where(finite.any(axis=1), np.max(np.where(finite, g, -np.inf), axis=1), 0.0)
    lo = np.where(finite.any(axis=1), np.min(np.where(finite, g, np.inf), axis=1), 0.0)
    scale = np.maximum(np.abs(hi), np.abs(lo))
    safe = np.where(scale > 0.0, scale, 1.0)
    out = masked / safe[:, None]
    out[~finite] = 0.0
    return out


# ---------------------------------------------------------------------------
# samples, datasets, splits


@dataclass
class Sample:
    """One engine visit: raw evaluations (pre-gamma) and binary labels."""

    inputs: np.ndarray  # (N,) float64, inf sentinel at out-of-domain slots
    labels: np.ndarray  # (N,) uint8

    @property
    def n_troubled(self) -> int:
        return int(self.labels.sum())


@dataclass
class DatasetSplit:
    train: list[Sample]
    validation: list[Sample]
    test: list[Sample]

    @staticmethod
    def _stack(samples: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
        x = np.stack([s.inputs for s in samples]) if samples else np.zeros((0, 0))
        y = np.stack([s.labels for s in samples]) if samples else np.zeros((0, 0))
        return x, y

    def arrays(self, part: str) -> tuple[np.ndarray, np.ndarray]:
        return self._stack(getattr(self, part))


def generate_dataset(grid: SparseGrid, graph: GridGraph, detector_t: int,
                     functions: Sequence[PiecewiseFunction],
                     lambda_min, tau: float = 0.5,
                     domain: Box | None = None,
                     n_jobs: int = 1) -> tuple[list[Sample], dict]:
    """Run the engine on each function and record every grid visit.

    Labels come from the z-detector on the function's own cut; inputs are
    the engine's g evaluations on the same grid instance (sentinels at
    out-of-domain slots, each point evaluated once).  Returns the samples
    plus generation stats.  Samples are ordered by function index, then
    visit order, so the result is deterministic regardless of ``n_jobs``.
    """
    if domain is None:
        domain = Box.cube((Fraction(0),) * grid.dim, Fraction(2))
    args = [(grid, graph, detector_t, fn, lambda_min, tau, domain) for fn in functions]
    if n_jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_generate_for_function, args))
    else:
        results = [_generate_for_function(a) for a in args]
    samples: list[Sample] = []
    skipped = 0
    for fn_samples, fn_skipped in results:
        samples.extend(fn_samples)
        skipped += fn_skipped
    stats = {
        "functions": len(functions),
        "samples": len(samples),
        "skipped_nan_visits": skipped,
    }
    return samples, stats


def _generate_for_function(args) -> tuple[list[Sample], int]:
    from sgdetect.engine import EngineConfig, run_batched

    grid, graph, detector_t, fn, lambda_min, tau, domain = args
    detector = ZLevelDetector(fn.cut, detector_t)
    config = EngineConfig(lambda_min=lambda_min, tau=tau, domain=domain,
                          boundary_policy="clip-stop")
    samples: list[Sample] = []
    skipped = 0

    def record(task, sample, p_raw):
        nonlocal skipped
        if np.isnan(sample.evaluations).any():
            skipped += 1
            return
        labels = ((p_raw >= tau) & sample.in_domain).astype(np.uint8)
        samples.append(Sample(inputs=sample.evaluations, labels=labels))

    run_batched(g=fn, grid=grid, graph=graph, detector=detector,
                initial=[(domain.center, domain.edge)], config=config,
                visit_hook=record)
    return samples, skipped


def balance_dataset(samples: list[Sample], rng: np.random.Generator) -> list[Sample]:
    """Thin the all-zero samples down to D0' = max_i #{samples with i troubled}.

    Samples with at least one nonzero label are always kept.  Raises
    :class:`DegenerateDatasetError` when no sample has a nonzero label.
    """
    nonzero = [s for s in samples if s.n_troubled > 0]
    zeros = [s for s in samples if s.n_troubled == 0]
    if not nonzero:
        raise DegenerateDatasetError("every sample has an all-zero label vector")
    counts: dict[int, int] = {}
    for s in nonzero:
        counts[s.n_troubled] = counts.get(s.n_troubled, 0) + 1
    keep_zero = max(counts.values())
    if keep_zero < len(zeros):
        chosen = rng.choice(len(zeros), size=keep_zero, replace=False)
        zeros = [zeros[i] for i in sorted(chosen)]
    return nonzero + zeros


def split_dataset(samples: list[Sample], rng: np.random.Generator) -> DatasetSplit:
    """Shuffle, then carve off floor(30%) test and floor(80% of rest) train."""
    if len(samples) < 10:
        raise DegenerateDatasetError(f"need at least 10 samples to split, got {len(samples)}")
    order = rng.permutation(len(samples))
    shuffled = [samples[i] for i in order]
    n_test = int(0.3 * len(samples))
    rest = len(samples) - n_test
    n_train = int(0.8 * rest)
    return DatasetSplit(
        test=shuffled[:n_test],
        train=shuffled[n_test : n_test + n_train],
        validation=shuffled[n_test + n_train :],
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

    def to_samples(self) -> list[Sample]:
        return [Sample(inputs=self.inputs[i].copy(), labels=self.labels[i].copy())
                for i in range(self.n_samples)]

    @staticmethod
    def from_samples(samples: list[Sample], grid_key: str, detector: str, seed: int,
                     coeff_convention: str = "normal(0, variance=10)",
                     meta: dict | None = None) -> "Dataset":
        return Dataset(
            grid_key=grid_key,
            detector=detector,
            seed=seed,
            coeff_convention=coeff_convention,
            inputs=np.stack([s.inputs for s in samples]).astype(np.float64),
            labels=np.stack([s.labels for s in samples]).astype(np.uint8),
            meta=meta or {},
        )


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
        "version": 1,
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
        fh.write(np.ascontiguousarray(ds.inputs, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype=np.uint8).tobytes())
    with open(hdr_path, "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return bin_path, hdr_path


def load_dataset(path) -> Dataset:
    bin_path, hdr_path = dataset_paths(path)
    header = read_document(hdr_path, "detector-dataset")
    s, n = header["n_samples"], header["n_points"]
    raw = Path(bin_path).read_bytes()
    if len(raw) != s * n * 9:
        raise MalformedFileError(
            f"{bin_path} holds {len(raw)} bytes; its header needs {s * n * 9}")
    inputs = np.frombuffer(raw, dtype="<f8", count=s * n).reshape(s, n).copy()
    labels = np.frombuffer(raw, dtype=np.uint8, offset=s * n * 8, count=s * n).reshape(s, n).copy()
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
        for row_x, row_y in zip(ds.inputs, ds.labels):
            writer.writerow([repr(float(v)) for v in row_x] + [int(v) for v in row_y])
