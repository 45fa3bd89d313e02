"""Affine layers with hand-written backward passes (double precision).

Layers compute the affine part only; activations are applied by the model,
in place on a layer's output, so the residual sum can add into it.  Every
backward pass is verified against central finite differences in the test
suite.

The graph-instructed (GI) layer is a dense layer constrained by a fixed
matrix A_hat = A + I (weighted adjacency plus unit self-loops): the output
feature of node i aggregates the per-node transforms of its in-neighbors
and itself, scaled by the corresponding A_hat entries,

    out[b, i, f] = sum_j A_hat[j, i] * sum_k X[b, j, k] * w[j, k, f] + bias[i, f].

For one input and one output feature per node and an unweighted graph this
is exactly (diag(w) (A + I))^T x + b.  Entries of the effective dense
matrix at zero positions of A_hat are structurally zero, so no optimizer
step can break the sparsity pattern.

A_hat is held as a ``scipy.sparse.csr_array``: on the 401-point 4D grid
it is 1 % non-zero, and the aggregation ``A_hat.T @ t`` (``A_hat @ dz`` in
backward) touches only the stored entries.  A model builds the matrix once
and every one of its GI layers holds that same object (plus a transposed
view on the same arrays); a dense array passed to :class:`GILayer` is
converted once, on construction.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp


def glorot_normal(rng: np.random.Generator | None, shape: tuple[int, ...],
                  fan_in: int, fan_out: int) -> np.ndarray:
    """Normal init with variance 2 / (fan_in + fan_out); zeros without an
    ``rng``, for a loader that overwrites every weight anyway."""
    if rng is None:
        return np.zeros(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


class Layer:
    """A layer names the arrays it owns once, in two class tuples that
    everything else reads: ``PARAMS`` are trained, each with its gradient
    in the attribute ``"d" + name``; ``STATS`` are not trained but are read
    by inference, so a model stores and restores them with the parameters.
    """

    PARAMS: tuple[str, ...] = ("w", "b")
    STATS: tuple[str, ...] = ()

    def params(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.PARAMS]

    def grads(self) -> list[np.ndarray]:
        return [getattr(self, "d" + name) for name in self.PARAMS]

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params())

    def folded(self, bn: BatchNorm | None = None) -> Layer:
        """An inference-only copy of this affine layer with ``bn``'s inference
        map, if any, folded into its input side: it maps x as this layer maps
        ``bn.infer(x)``, up to rounding.  Its weight and bias are new arrays;
        it has no gradients."""
        layer = copy.copy(self)
        layer.w, layer.b = self.w.copy(), self.b.copy()
        layer.dw = layer.db = layer._x = None
        if bn is not None:
            scale, shift = bn.affine()
            layer.b += self._shifted(shift)
            layer.w *= scale[:, None]
        return layer


class GILayer(Layer):
    """Graph-instructed affine map R^(B,N,K) -> R^(B,N,F) over fixed A_hat."""

    def __init__(self, a_hat: sp.csr_array | np.ndarray, k: int, f: int,
                 rng: np.random.Generator | None):
        n = a_hat.shape[0]
        # a model's shared CSR matrix is kept as is; anything else is converted once
        if not isinstance(a_hat, sp.csr_array):
            a_hat = sp.csr_array(a_hat, dtype=np.float64)
        self.a_hat = a_hat
        # a CSC view on the same arrays, taken once: building it costs as much
        # as a small aggregation
        self._a_hat_t = a_hat.T
        self.n = n
        self.k = k
        self.f = f
        # fan as for the masked-dense view of shape (N*K, N*F)
        self.w = glorot_normal(rng, (n, k, f), fan_in=n * k, fan_out=n * f)
        self.b = np.zeros((n, f), dtype=np.float64)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.infer(x)
        self._x = x
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The affine map alone, keeping nothing for a backward pass; the
        output is a fresh array that the caller may overwrite."""
        if x.shape[1] != self.n or x.shape[2] != self.k:
            raise ValueError(f"expected (B, {self.n}, {self.k}) input, got {x.shape}")
        batch = x.shape[0]
        # t[j, b, f] = sum_k x[b, j, k] w[j, k, f]
        t = np.matmul(x.transpose(1, 0, 2), self.w)
        out = (self._a_hat_t @ t.reshape(self.n, batch * self.f)).reshape(self.n, batch, self.f)
        out += self.b[:, None, :]
        # a (B, N, F) view of node-major memory: the next GI layer reads it
        # node-major without a copy
        return out.transpose(1, 0, 2)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        batch = dout.shape[0]
        # bit-equal to np.sum(dout, axis=0) in either layout, and about 3x
        # faster on the node-major one the model hands back
        np.einsum("bnf->nf", dout, out=self.db)
        dz = dout.transpose(1, 0, 2).reshape(self.n, batch * self.f)
        dt = (self.a_hat @ dz).reshape(self.n, batch, self.f)
        # dw[j, k, f] = sum_b x[b, j, k] dt[j, b, f]
        np.matmul(self._x.transpose(1, 2, 0), dt, out=self.dw)
        dx = np.matmul(dt, self.w.transpose(0, 2, 1))
        return dx.transpose(1, 0, 2)

    def _shifted(self, shift: np.ndarray) -> np.ndarray:
        """What adding ``shift[k]`` to input feature k adds to the output:
        A_hat^T (sum_k shift[k] w[:, k, :])."""
        return self._a_hat_t @ np.einsum("jkf,k->jf", self.w, shift)


class DenseLayer(Layer):
    """Fully connected affine map R^(B,in) -> R^(B,out)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None):
        self.w = glorot_normal(rng, (n_in, n_out), fan_in=n_in, fan_out=n_out)
        self.b = np.zeros(n_out, dtype=np.float64)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The affine map alone, keeping nothing for a backward pass."""
        out = x @ self.w
        out += self.b
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        np.matmul(self._x.T, dout, out=self.dw)
        np.sum(dout, axis=0, out=self.db)
        return dout @ self.w.T

    def _shifted(self, shift: np.ndarray) -> np.ndarray:
        """What adding ``shift`` to the input adds to the output."""
        return shift @ self.w


def _feature_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``a`` (or of ``a * b``) over every axis but the last, in one pass
    over memory of any layout."""
    axes = list(range(a.ndim))
    if b is None:
        return np.einsum(a, axes, axes[-1:])
    return np.einsum(a, axes, b, axes, axes[-1:])


class BatchNorm(Layer):
    """Batch normalization over the last axis (momentum 0.99, eps 1e-3).

    :meth:`forward` is the training pass: it normalizes with biased batch
    statistics over all leading axes and updates the running estimates.
    :meth:`infer` uses the running statistics, making prediction
    row-independent, and keeps no state.  :meth:`backward` returns its
    gradient in the memory of the forward cache and drops the cache, so
    each forward allows one backward.
    """

    PARAMS = ("gamma", "beta")
    STATS = ("running_mean", "running_var")

    def __init__(self, n_features: int, momentum: float = 0.99, eps: float = 1e-3):
        self.gamma = np.ones(n_features, dtype=np.float64)
        self.beta = np.zeros(n_features, dtype=np.float64)
        self.running_mean = np.zeros(n_features, dtype=np.float64)
        self.running_var = np.ones(n_features, dtype=np.float64)
        self.momentum = momentum
        self.eps = eps
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        m = x.size // x.shape[-1]
        mean = _feature_sum(x) / m
        x_hat = x - mean
        var = _feature_sum(x_hat, x_hat) / m
        inv_std = 1.0 / np.sqrt(var + self.eps)
        self.running_mean[...] = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var[...] = self.momentum * self.running_var + (1 - self.momentum) * var
        self._cache = (x_hat, inv_std)
        x_hat *= inv_std
        out = x_hat * self.gamma
        out += self.beta
        return out

    def infer(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Normalize on the running statistics into ``out`` (a new array by
        default; ``x`` itself is allowed), in the operation order of
        :meth:`forward`."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        out = np.subtract(x, self.running_mean, out=out)
        out *= inv_std
        out *= self.gamma
        out += self.beta
        return out

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`infer` as one affine map per feature, ``x * scale + shift``,
        in two new arrays: scale = gamma / sqrt(var + eps) and
        shift = beta - mean * scale."""
        scale = self.gamma / np.sqrt(self.running_var + self.eps)
        return scale, self.beta - self.running_mean * scale

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BatchNorm.backward needs a training-mode forward first")
        x_hat, inv_std = self._cache
        self._cache = None
        m = x_hat.size // x_hat.shape[-1]
        self.dgamma[...] = _feature_sum(dout, x_hat)
        self.dbeta[...] = _feature_sum(dout)
        # with dx_hat = gamma * dout, sum(dx_hat) = gamma * dbeta and
        # sum(dx_hat * x_hat) = gamma * dgamma, so
        # dx = gamma * inv_std * (dout - (dbeta + x_hat * dgamma) / m),
        # formed in the cached x_hat, which nothing reads after this
        dx = np.multiply(x_hat, self.dgamma / m, out=x_hat)
        dx += self.dbeta / m
        np.subtract(dout, dx, out=dx)
        dx *= self.gamma * inv_std
        return dx


def leaky_relu(x: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, slope * x), into ``out`` (``x`` itself is allowed) or a new array:
    equals ``where(x > 0, x, slope * x)`` for 0 <= slope < 1, signed zeros and
    NaN included; only at slope 0 does +inf map to NaN (0 * inf)."""
    scaled = slope * x
    return np.maximum(x, scaled, out=scaled if out is None else out)


def leaky_relu_grad(x: np.ndarray, slope: float) -> np.ndarray:
    """1 where x > 0, else slope, in one new array: equals
    ``where(x > 0, 1.0, slope)`` for 0 <= slope < 1, signed zeros and NaN
    included (sign gives -1, +0, 1 or NaN; fmax ignores the NaN).

    It gives the same array for ``leaky_relu(x, slope)`` as for ``x``: the
    activation keeps every x > 0 positive and maps every other x to a value
    that is not positive (-0 included) or to NaN, all of which give
    ``slope``.  The one exception is +inf at slope 0, which the activation
    turns into NaN (0 * inf)."""
    grad = np.sign(x)
    return np.fmax(grad, slope, out=grad)
