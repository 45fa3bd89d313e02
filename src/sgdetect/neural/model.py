"""Residual architecture archetype shared by the MLP and GINN detectors.

The archetype is: input (N) -> hidden layer L1 with activation -> batch
norm -> floor(diam(G)/2) residual blocks -> final layer with sigmoid.
Each residual block is L' (activation) -> batch norm -> L'' (linear) ->
sum with the previous sum-stream output, activation -> batch norm; the
sum stream starts at L1's output.  GINN variants use graph-instructed
layers with F features per node, the final sigmoid output being mean
pooled over features so the per-node value stays in [0, 1]; MLP variants
use dense N-unit layers throughout.

A saved model file is self-contained: it stores the config, the grid
hash, the adjacency triples, every parameter tensor, the batch-norm
running statistics, and the training history, so loading never requires
rebuilding the grid.  A GINN builds its sparse A_hat = A + I once, from the
graph or from the stored triples, and shares it across its GI layers.

Storage.  Once its layers are built, a model moves every array of fewer
than ``SAMPLE_BUDGET`` elements into one of two buffers and rebinds the
layer attribute to a view of it.  The state buffer holds those parameters
in :meth:`~ArchetypeModel.parameters` order, then every layer's running
statistics (the arrays its ``STATS`` names); the gradient buffer holds the
matching gradients in the same order.  Arrays of ``SAMPLE_BUDGET`` elements
or more (the 401-point grid's weight matrices) keep their own allocation.
:attr:`ArchetypeModel.storage` lists what training steps and snapshots:
the packed buffer, then each large array.  On the 65-point grid that makes
an Adam step two or six blocks instead of 46 arrays, and a best-epoch
snapshot one copy.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from sgdetect.detectors import SAMPLE_BUDGET
from sgdetect.errors import MalformedFileError, read_document, write_document
from sgdetect.grid_graph import GridGraph
from sgdetect.neural.layers import BatchNorm, DenseLayer, GILayer, leaky_relu, leaky_relu_grad

MODEL_FILE_VERSION = 1

MODEL_KINDS = ("ginn", "mlp")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs for the detector models."""

    kind: str = "ginn"  # one of MODEL_KINDS
    features: int = 15  # F, per-node features of GI hidden layers
    leaky_slope: float = 0.3

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be 'ginn' or 'mlp', got {self.kind!r}")
        if self.features < 1:
            raise ValueError("features must be >= 1")
        if not (math.isfinite(self.leaky_slope) and 0.0 <= self.leaky_slope < 1.0):
            raise ValueError(f"leaky_slope must be finite and in [0, 1), got {self.leaky_slope}")


class Storage(NamedTuple):
    """A model's arrays as training walks them: in each list the packed
    buffer comes first, then the large arrays in parameter order."""

    params: list[np.ndarray]  # the state buffer's parameter part
    grads: list[np.ndarray]  # the gradient buffer
    state: list[np.ndarray]  # the whole state buffer, running statistics included


class ArchetypeModel:
    """One built archetype with explicit forward/backward passes; without
    an ``rng`` its weights start at zero."""

    def __init__(self, config: ModelConfig, n_points: int, n_blocks: int,
                 a_hat: sp.csr_array | None, rng: np.random.Generator | None,
                 grid_key: str = "", grid_hash: str = "",
                 adjacency: list | None = None, diameter: int | None = None):
        self.config = config
        self.n_points = n_points
        self.n_blocks = n_blocks
        self.a_hat = a_hat
        self.grid_key = grid_key
        self.grid_hash = grid_hash
        self.adjacency = adjacency or []
        self.diameter = diameter
        self.history: dict = {}
        ginn = config.kind == "ginn"
        if ginn and a_hat is None:
            raise ValueError("GINN archetype needs the A + I matrix")
        width = config.features if ginn else n_points

        def layer(k: int):
            """A layer from k input features (GI) or units (dense) to ``width``."""
            return GILayer(a_hat, k=k, f=width, rng=rng) if ginn else DenseLayer(k, width, rng)

        # draw order: l1, then each block's two layers, then l_fin
        self.l1 = layer(1 if ginn else width)
        self.bn1 = BatchNorm(width)
        self.blocks = [(layer(width), BatchNorm(width), layer(width), BatchNorm(width))
                       for _ in range(n_blocks)]
        self.l_fin = layer(width)
        self._cache = None
        self.storage = self._pack()

    # -- parameter plumbing -------------------------------------------------

    def _layers(self):
        yield self.l1
        yield self.bn1
        for lp, bnp, lpp, bnpp in self.blocks:
            yield lp
            yield bnp
            yield lpp
            yield bnpp
        yield self.l_fin

    def _pack(self) -> Storage:
        """Copy each small array into its view of the state or gradient
        buffer and rebind the layer attribute to that view."""
        layers = list(self._layers())
        params = [(layer, name) for layer in layers for name in layer.PARAMS]
        small = [(layer, name) for layer, name in params
                 if getattr(layer, name).size < SAMPLE_BUDGET]
        stats = [(layer, name) for layer in layers for name in layer.STATS]
        n_small = sum(getattr(layer, name).size for layer, name in small)
        state = np.empty(n_small + sum(getattr(layer, name).size for layer, name in stats))
        grads = np.empty(n_small)
        lo = 0
        for layer, name in small + stats:
            hi = lo + getattr(layer, name).size
            _rebind(layer, name, state[lo:hi])
            if hi <= n_small:
                _rebind(layer, "d" + name, grads[lo:hi])
            lo = hi
        large = [(layer, name) for layer, name in params
                 if getattr(layer, name).size >= SAMPLE_BUDGET]
        arrays = [getattr(layer, name) for layer, name in large]
        gradients = [getattr(layer, "d" + name) for layer, name in large]
        return Storage(params=[state[:n_small], *arrays], grads=[grads, *gradients],
                       state=[state, *arrays])

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self._layers() for p in layer.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self._layers() for g in layer.grads()]

    def state(self) -> list[np.ndarray]:
        """The parameters, then every layer's running statistics: all that
        inference reads, so a copy of it restores the model."""
        return self.parameters() + [getattr(layer, name) for layer in self._layers()
                                    for name in layer.STATS]

    # -- forward / backward ---------------------------------------------------

    def _input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_points:
            raise ValueError(f"expected (batch, {self.n_points}) input, got {x.shape}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Training pass: input (B, N) of preprocessed evaluations ->
        likelihoods (B, N), normalized on batch statistics, which it folds
        into the running ones; keeps what :meth:`backward` reads."""
        return self._pass(self._input(x), training=True)

    def backward(self, dp: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss wrt the forward input; fills layer grads.
        Each gradient product runs in place on the fresh array of the step
        before it."""
        a1, block_cache, q = self._cache
        slope = self.config.leaky_slope
        ginn = self.config.kind == "ginn"
        # dq = dp / F on every feature of a node (GINN), then the sigmoid's q (1 - q)
        dfin = (dp / self.config.features)[:, :, None] * q if ginn else dp * q
        dfin *= 1.0 - q
        dz = self.l_fin.backward(dfin)
        dskip = 0.0
        for (lp, bnp, lpp, bnpp), (u, s) in zip(reversed(self.blocks), reversed(block_cache)):
            ds = bnpp.backward(dz)
            ds += dskip
            ds *= leaky_relu_grad(s, slope)
            dskip = ds
            du = bnp.backward(lpp.backward(ds))
            du *= leaky_relu_grad(u, slope)
            dz = lp.backward(du)
        da1 = self.bn1.backward(dz)
        da1 += dskip
        da1 *= leaky_relu_grad(a1, slope)
        dh = self.l1.backward(da1)
        return dh[:, :, 0] if ginn else dh

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference: input (B, N) -> likelihoods (B, N), with batch norm on
        the running statistics, so each row's output depends on that row
        alone, up to the rounding of a lone row noted below.  It keeps no
        state, so it may run between :meth:`forward` and :meth:`backward`.

        Rows go in chunks of 1,024.  An MLP forwards each chunk whole: dense
        products are not bit-equal across row counts, and its ``(rows, N)``
        activations are small anyway.  A GINN splits each chunk evenly into
        blocks of at most ``SAMPLE_BUDGET // (N F)`` rows, so each
        ``(rows, N, F)`` activation stays cache-sized.  The bound is at least
        3, so that no block but a lone-row chunk has one row: NumPy multiplies
        a single row by another kernel, which rounds differently.
        """
        x = self._input(x)
        rows = 1024
        if self.config.kind == "ginn":
            rows = max(3, SAMPLE_BUDGET // (self.n_points * self.config.features))
        p = np.empty(x.shape)
        for lo in range(0, x.shape[0], 1024):
            size = min(1024, x.shape[0] - lo)
            parts = -(-size // rows)
            cuts = [lo + size * i // parts for i in range(parts + 1)]
            for a, b in zip(cuts, cuts[1:]):
                p[a:b] = self._pass(x[a:b], training=False)
        return p

    def _pass(self, x: np.ndarray, training: bool) -> np.ndarray:
        """The archetype on a (B, N) input: each layer's ``forward`` when
        training, its ``infer`` otherwise.  Each activation, the residual sum
        and the sigmoid run in place on the fresh output of the layer before
        them.  Training caches the activated ``a1``, ``u`` and ``s``:
        :func:`leaky_relu_grad` gives the same array for them as for their
        pre-activations, except at +inf with slope 0, whose NaN makes the
        loss non-finite, so ``train`` raises ``TrainingDivergedError`` first.
        Inference caches nothing, so a block's first batch norm writes into ``u``."""
        slope = self.config.leaky_slope
        ginn = self.config.kind == "ginn"

        def step(layer, h):
            return layer.forward(h) if training else layer.infer(h)

        a1 = step(self.l1, x[:, :, None] if ginn else x)
        s = leaky_relu(a1, slope, out=a1)
        z = step(self.bn1, s)  # s is the residual stream: normalize into a new array
        block_cache = []
        for lp, bnp, lpp, bnpp in self.blocks:
            u = step(lp, z)
            leaky_relu(u, slope, out=u)
            w = step(lpp, bnp.forward(u) if training else bnp.infer(u, out=u))
            w += s
            s = leaky_relu(w, slope, out=w)
            z = step(bnpp, s)
            if training:
                block_cache.append((u, s))
        q = step(self.l_fin, z)
        expit(q, out=q)
        if training:
            self._cache = (a1, block_cache, q)
        return q.mean(axis=2) if ginn else q


def _rebind(layer, name: str, flat: np.ndarray) -> None:
    """Point ``layer.name`` at ``flat`` shaped like it, holding its values."""
    view = flat.reshape(getattr(layer, name).shape)
    view[...] = getattr(layer, name)
    setattr(layer, name, view)


def build_archetype(config: ModelConfig, graph: GridGraph, seed: int = 0) -> ArchetypeModel:
    """Instantiate the archetype for a grid graph: depth = floor(diam/2) blocks."""
    diam = graph.diameter()
    n_blocks = diam // 2
    n = graph.n_points
    adjacency = [[i, j, w] for (i, j), w in zip(graph.edges[:, :2].tolist(),
                                                graph.weights.tolist())]
    return ArchetypeModel(
        config=config,
        n_points=n,
        n_blocks=n_blocks,
        a_hat=_a_hat(adjacency, n) if config.kind == "ginn" else None,
        rng=np.random.default_rng(seed),
        grid_key=graph.grid.spec.key(),
        grid_hash=grid_fingerprint(graph),
        adjacency=adjacency,
        diameter=diam,
    )


def _a_hat(adjacency: list, n: int) -> sp.csr_array:
    """A_hat = A + I from a model's stored ``(i, j, w)`` edge triples, in canonical CSR
    form; ``coo_matrix`` picks int32 indices where they fit, as the graph's matrix does."""
    i, j, w = np.array(adjacency, dtype=np.float64).reshape(-1, 3).T
    upper = sp.coo_matrix((w, (i.astype(np.int64), j.astype(np.int64))), shape=(n, n))
    a_hat = sp.csr_array(upper + upper.T + sp.eye_array(n))
    a_hat.sum_duplicates()
    return a_hat


def grid_fingerprint(graph: GridGraph) -> str:
    """Stable hash of the grid's similarity class (spec + lattice)."""
    import hashlib

    grid = graph.grid
    payload = json.dumps(
        {"spec": grid.spec.key(), "resolution": grid.resolution,
         "lattice": grid.lattice.tolist()},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def count_parameters(model: ArchetypeModel, batchnorm: str = "trainable") -> int:
    """Trainable parameter count.

    ``batchnorm="trainable"`` counts batch-norm scale/shift (running
    statistics are never counted); ``batchnorm="none"`` skips the layers
    that keep running statistics, the batch norms, entirely.  Both
    conventions are exposed because published counts rarely say which one
    they use.
    """
    if batchnorm not in ("trainable", "none"):
        raise ValueError(f"unknown batchnorm convention {batchnorm!r}")
    return sum(layer.n_params for layer in model._layers()
               if batchnorm == "trainable" or not layer.STATS)


# ---------------------------------------------------------------------------
# model files


def _tensors(layer) -> dict[str, np.ndarray]:
    """A layer's stored tensors, by their key in the model file."""
    return {name: getattr(layer, name) for name in layer.PARAMS + layer.STATS}


def save_model(model: ArchetypeModel, path) -> Path:
    layers = []
    for layer in model._layers():
        if isinstance(layer, GILayer):
            head = {"type": "gi", "k": layer.k, "f": layer.f}
        else:
            head = {"type": "batchnorm" if isinstance(layer, BatchNorm) else "dense"}
        layers.append({**head, **{key: t.tolist() for key, t in _tensors(layer).items()}})
    doc = {
        "kind": "detector-model",
        "version": MODEL_FILE_VERSION,
        "config": asdict(model.config),
        "n_points": model.n_points,
        "n_blocks": model.n_blocks,
        "diameter": model.diameter,
        "grid_key": model.grid_key,
        "grid_hash": model.grid_hash,
        "adjacency": model.adjacency,
        "layers": layers,
        "history": model.history,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_document(path, doc, indent=None)
    return path


def load_model(path) -> ArchetypeModel:
    """Rebuild a saved model; another file version, a missing entry, a layer
    count or tensor shape other than its config implies, or a bad config
    raises MalformedFileError."""
    doc = read_document(path, "detector-model", MODEL_FILE_VERSION)
    try:
        return _model_from_document(doc)
    except KeyError as exc:
        raise MalformedFileError(f"{path} has no {exc.args[0]!r} entry") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{path} is not a valid model file: {exc}") from exc


def _model_from_document(doc: dict) -> ArchetypeModel:
    # files written before the unused ``init`` field was removed still load
    config = ModelConfig(**{k: v for k, v in doc["config"].items() if k != "init"})
    n = doc["n_points"]
    model = ArchetypeModel(
        config=config,
        n_points=n,
        n_blocks=doc["n_blocks"],
        a_hat=_a_hat(doc["adjacency"], n) if config.kind == "ginn" else None,
        rng=None,
        grid_key=doc.get("grid_key", ""),
        grid_hash=doc.get("grid_hash", ""),
        adjacency=doc.get("adjacency", []),
        diameter=doc.get("diameter"),
    )
    model.history = doc.get("history", {})
    layers = list(model._layers())
    if len(doc["layers"]) != len(layers):
        raise ValueError(f"it holds {len(doc['layers'])} layers, its config "
                         f"builds {len(layers)}")
    for index, (layer, state) in enumerate(zip(layers, doc["layers"])):
        for key, current in _tensors(layer).items():
            value = np.asarray(state[key], dtype=np.float64)
            if value.shape != current.shape:
                raise ValueError(f"layer {index} {key!r} has shape {value.shape}, "
                                 f"its config builds {current.shape}")
            current[...] = value
    return model


__all__ = [
    "MODEL_KINDS",
    "ArchetypeModel",
    "ModelConfig",
    "Storage",
    "build_archetype",
    "count_parameters",
    "grid_fingerprint",
    "load_model",
    "save_model",
]
