"""Training loop: weighted BCE, Adam, plateau scheduler, early stopping.

The loss is the batch-averaged sum of component-wise binary cross
entropies with class weights MU1 (troubled) and MU0 (non-troubled);
predictions are clipped to [1e-7, 1 - 1e-7] so the loss stays finite.
Validation loss drives both the reduce-on-plateau learning-rate schedule
and early stopping; training ends by restoring the best-validation epoch's
weights and batch-norm running statistics.  All state is seeded,
so a fixed seed reproduces bit-identical trained parameters on the same
platform and thread count.  Each epoch logs its losses, learning rate and
duration at INFO level through this module's logger; nothing prints
unless the caller configures a handler.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from sgdetect.detectors import SAMPLE_BUDGET
from sgdetect.errors import TrainingDivergedError
from sgdetect.neural.model import ArchetypeModel
from sgdetect.synth_data import DatasetSplit, Samples, preprocess_gamma_batch

CLIP = 1e-7

#: class weights of the loss: non-troubled (mu0) and troubled (mu1) components
MU0, MU1 = 0.5, 1.5
#: Adam moment decay rates and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-7
#: reduce-on-plateau schedule: learning-rate factor and stale epochs before it applies
PLATEAU_FACTOR, PLATEAU_PATIENCE = 0.75, 7

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """The knobs a run chooses; the loss weights and schedule are constants."""

    batch_size: int = 64
    learning_rate: float = 0.001
    early_stop_patience: int = 35
    max_epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


def weighted_bce(p_hat: np.ndarray, p: np.ndarray, mu0: float, mu1: float,
                 with_grad: bool = False):
    """Batch-averaged sum over components of the weighted binary cross entropy.

    Returns the scalar loss, or (loss, dL/dp_hat) when ``with_grad``; the
    gradient is zero where the prediction sits in the clipped region.
    """
    p_hat = np.asarray(p_hat, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    batch = p_hat.shape[0]
    clipped = np.clip(p_hat, CLIP, 1.0 - CLIP)
    loss = float(
        np.sum(-mu1 * p * np.log(clipped) - mu0 * (1.0 - p) * np.log1p(-clipped)) / batch
    )
    if not with_grad:
        return loss
    inside = (p_hat > CLIP) & (p_hat < 1.0 - CLIP)
    grad = np.where(inside, (-mu1 * p / clipped + mu0 * (1.0 - p) / (1.0 - clipped)) / batch, 0.0)
    return loss, grad


class Adam:
    """Standard Adam (BETA1, BETA2, EPS) with bias correction; learning rate
    passed per step.

    A step walks each parameter, its gradient and moments as flat views in
    blocks of at most ``SAMPLE_BUDGET`` elements, so that each block's
    arrays stay in cache across the update's 14 element-wise operations.
    Those run in the order of the whole-array formula
    ``m = BETA1 m + (1 - BETA1) g``, ``v = BETA2 v + (1 - BETA2) g g``,
    ``p -= lr (m / b1c) / (sqrt(v / b2c) + EPS)``, in place or into two
    scratch blocks allocated once.  Each element's result depends on that
    element alone, so the blocks keep the step bit-identical to the
    whole-array one, and a step allocates nothing the size of a parameter.
    ``train`` passes the model's storage lists, so a small model's step is a
    few blocks of one packed buffer rather than a pass per array.
    """

    def __init__(self, params: list[np.ndarray]):
        for i, p in enumerate(params):
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {i} is not C-contiguous; a flat view of it "
                                 f"would be a copy")
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        block = min(SAMPLE_BUDGET, max((p.size for p in params), default=0))
        self._scratch = np.empty((2, block))

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError(f"expected {len(self.m)} params and grads, got "
                             f"{len(params)} and {len(grads)}")
        for i, (p, g, m) in enumerate(zip(params, grads, self.m)):
            if p.shape != m.shape or g.shape != m.shape:
                raise ValueError(f"parameter {i}: expected shape {m.shape}, got param "
                                 f"{p.shape} and grad {g.shape}")
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {i} is not C-contiguous")
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        s1, s2 = self._scratch
        for p, g, m, v in zip(params, grads, self.m, self.v):
            p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            for lo in range(0, p.size, SAMPLE_BUDGET):
                hi = lo + SAMPLE_BUDGET
                pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                a, b = s1[: pb.size], s2[: pb.size]
                np.multiply(mb, BETA1, out=mb)
                np.multiply(gb, 1.0 - BETA1, out=a)
                np.add(mb, a, out=mb)
                np.multiply(vb, BETA2, out=vb)
                np.multiply(gb, 1.0 - BETA2, out=a)
                np.multiply(a, gb, out=a)
                np.add(vb, a, out=vb)
                np.divide(mb, b1c, out=a)
                np.multiply(a, lr, out=a)
                np.divide(vb, b2c, out=b)
                np.sqrt(b, out=b)
                np.add(b, EPS, out=b)
                np.divide(a, b, out=a)
                np.subtract(pb, a, out=pb)


class ReduceLROnPlateau:
    """Multiply the learning rate by ``factor`` after ``patience`` stale epochs."""

    def __init__(self, lr: float, factor: float, patience: int):
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.best = np.inf
        self.wait = 0

    def update(self, value: float) -> float:
        if value < self.best:
            self.best = value
            self.wait = 0
        else:
            self.wait += 1
            if self.wait >= self.patience:
                self.lr *= self.factor
                self.wait = 0
        return self.lr


class EarlyStopping:
    """Stop after ``patience`` stale epochs; snapshot the best-validation
    arrays (``train`` passes ``model.storage.state``) into buffers
    allocated on the first improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.wait = 0
        self.best_params: list[np.ndarray] | None = None

    def update(self, value: float, params: list[np.ndarray]) -> bool:
        if value < self.best:
            self.best = value
            self.wait = 0
            if self.best_params is None:
                self.best_params = [np.empty_like(p) for p in params]
            for best, p in zip(self.best_params, params):
                np.copyto(best, p)
            return False
        self.wait += 1
        return self.wait >= self.patience


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    epochs: int = 0
    stopped_early: bool = False


def _prepare(samples: Samples) -> tuple[np.ndarray, np.ndarray]:
    # the labels stay uint8: weighted_bce reads them as float64 one batch at a time
    return preprocess_gamma_batch(samples.inputs), samples.labels


def train(model: ArchetypeModel, dataset: DatasetSplit, config: TrainConfig) -> TrainHistory:
    """Mini-batch Adam on the training set, validation-driven schedule.

    The stored raw evaluation vectors are preprocessed here (abs-max
    rescaling with sentinels zeroed), matching what the detector adapter
    feeds the model at inference time.
    """
    if not dataset.train or not dataset.validation:
        raise ValueError("training needs non-empty train and validation sets")
    x_train, y_train = _prepare(dataset.train)
    x_val, y_val = _prepare(dataset.validation)
    if x_train.shape[1] != model.n_points:
        raise ValueError(
            f"dataset has {x_train.shape[1]} points per sample, model expects {model.n_points}"
        )
    rng = np.random.default_rng(config.seed)
    storage = model.storage
    adam = Adam(storage.params)
    plateau = ReduceLROnPlateau(config.learning_rate, PLATEAU_FACTOR, PLATEAU_PATIENCE)
    stopper = EarlyStopping(config.early_stop_patience)
    history = TrainHistory()
    lr = config.learning_rate
    for epoch in range(1, config.max_epochs + 1):
        t0 = perf_counter()
        order = rng.permutation(x_train.shape[0])
        batch_losses = []
        for lo in range(0, order.size, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            p_hat = model.forward(x_train[idx])
            loss, dp = weighted_bce(p_hat, y_train[idx], MU0, MU1, with_grad=True)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}",
                    diagnostics={
                        "epoch": epoch,
                        "batch_start": int(lo),
                        "learning_rate": lr,
                        "param_norms": [float(np.linalg.norm(p))
                                        for p in model.parameters()],
                    },
                )
            batch_losses.append(loss)
            model.backward(dp)
            adam.step(storage.params, storage.grads, lr)
        val_loss = evaluate_loss(model, x_val, y_val)
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_loss.append(val_loss)
        history.learning_rate.append(lr)
        history.epochs = epoch
        logger.info("epoch %d: train loss %.6g, val loss %.6g, lr %.3g, %.3f s", epoch,
                    history.train_loss[-1], val_loss, lr, perf_counter() - t0)
        lr = plateau.update(val_loss)
        if stopper.update(val_loss, storage.state):
            history.stopped_early = True
            break
    # when the last epoch was the best, the state already equals its snapshot
    if stopper.best_params is not None and stopper.wait > 0:
        for current, best in zip(storage.state, stopper.best_params):
            current[...] = best
    model.history = asdict(history)
    return history


def evaluate_loss(model: ArchetypeModel, x: np.ndarray, y: np.ndarray) -> float:
    p_hat = model.predict(x)
    return weighted_bce(p_hat, y, MU0, MU1)


def evaluate_metrics(model: ArchetypeModel, samples: Samples) -> dict:
    x, y = _prepare(samples)
    p_hat = model.predict(x)
    return {
        "loss": weighted_bce(p_hat, y, MU0, MU1),
        "mae": float(np.mean(np.abs(p_hat - y))),
        "n_samples": int(x.shape[0]),
    }
