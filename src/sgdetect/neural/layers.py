"""Affine layers with hand-written backward passes (double precision).

Layers compute the affine part only; activations are applied by the model
so the residual sum can tap pre-activation streams.  Every backward pass
is verified against central finite differences in the test suite.

The graph-instructed (GI) layer is a dense layer constrained by a fixed
matrix A_hat = A + I (weighted adjacency plus unit self-loops): the output
feature of node i aggregates the per-node transforms of its in-neighbors
and itself, scaled by the corresponding A_hat entries,

    out[b, i, f] = sum_j A_hat[j, i] * sum_k X[b, j, k] * w[j, k, f] + bias[i, f].

For one input and one output feature per node and an unweighted graph this
is exactly (diag(w) (A + I))^T x + b.  Entries of the effective dense
matrix at zero positions of A_hat are structurally zero, so no optimizer
step can break the sparsity pattern.
"""

from __future__ import annotations

import numpy as np


def glorot_normal(rng: np.random.Generator, shape: tuple[int, ...],
                  fan_in: int, fan_out: int) -> np.ndarray:
    """Normal init with variance 2 / (fan_in + fan_out)."""
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


class GILayer:
    """Graph-instructed affine map R^(B,N,K) -> R^(B,N,F) over fixed A_hat."""

    def __init__(self, a_hat: np.ndarray, k: int, f: int, rng: np.random.Generator):
        n = a_hat.shape[0]
        self.a_hat = np.asarray(a_hat, dtype=np.float64)
        self.n = n
        self.k = k
        self.f = f
        # fan as for the masked-dense view of shape (N*K, N*F)
        self.w = glorot_normal(rng, (n, k, f), fan_in=n * k, fan_out=n * f)
        self.b = np.zeros((n, f), dtype=np.float64)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None
        self._t = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.n or x.shape[2] != self.k:
            raise ValueError(f"expected (B, {self.n}, {self.k}) input, got {x.shape}")
        batch = x.shape[0]
        # t[j, b, f] = sum_k x[b, j, k] w[j, k, f]
        t = np.matmul(x.transpose(1, 0, 2), self.w)
        out = (self.a_hat.T @ t.reshape(self.n, batch * self.f)).reshape(self.n, batch, self.f)
        self._x, self._t = x, t
        return out.transpose(1, 0, 2) + self.b[None, :, :]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        batch = dout.shape[0]
        self.db[...] = dout.sum(axis=0)
        dz = dout.transpose(1, 0, 2).reshape(self.n, batch * self.f)
        dt = (self.a_hat @ dz).reshape(self.n, batch, self.f)
        # dw[j, k, f] = sum_b x[b, j, k] dt[j, b, f]
        self.dw[...] = np.matmul(self._x.transpose(1, 2, 0), dt)
        dx = np.matmul(dt, self.w.transpose(0, 2, 1))
        return dx.transpose(1, 0, 2)

    def masked_dense_matrix(self) -> np.ndarray:
        """Effective (N*K, N*F) dense matrix; zero wherever A_hat[j, i] = 0."""
        w_hat = np.einsum("jkf,ji->jkif", self.w, self.a_hat)
        return w_hat.reshape(self.n * self.k, self.n * self.f)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    @property
    def n_params(self) -> int:
        return self.w.size + self.b.size


class DenseLayer:
    """Fully connected affine map R^(B,in) -> R^(B,out)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = glorot_normal(rng, (n_in, n_out), fan_in=n_in, fan_out=n_out)
        self.b = np.zeros(n_out, dtype=np.float64)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.w + self.b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.dw[...] = self._x.T @ dout
        self.db[...] = dout.sum(axis=0)
        return dout @ self.w.T

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    @property
    def n_params(self) -> int:
        return self.w.size + self.b.size


class BatchNorm:
    """Batch normalization over the last axis (momentum 0.99, eps 1e-3).

    Training mode normalizes with biased batch statistics over all leading
    axes and updates the running estimates; inference mode uses the
    running statistics, making prediction row-independent.
    """

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

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        shape = x.shape
        flat = x.reshape(-1, shape[-1])
        if training:
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = (flat - mean) * inv_std
            self.running_mean[...] = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var[...] = self.momentum * self.running_var + (1 - self.momentum) * var
            self._cache = (x_hat, inv_std, shape)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            x_hat = (flat - self.running_mean) * inv_std
            self._cache = None
        return (self.gamma * x_hat + self.beta).reshape(shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BatchNorm.backward needs a training-mode forward first")
        x_hat, inv_std, shape = self._cache
        dflat = dout.reshape(-1, shape[-1])
        m = dflat.shape[0]
        self.dgamma[...] = (dflat * x_hat).sum(axis=0)
        self.dbeta[...] = dflat.sum(axis=0)
        dx_hat = dflat * self.gamma
        dx = (inv_std / m) * (
            m * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0)
        )
        return dx.reshape(shape)

    def params(self):
        return [self.gamma, self.beta]

    def grads(self):
        return [self.dgamma, self.dbeta]

    @property
    def n_params(self) -> int:
        return self.gamma.size + self.beta.size


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def leaky_relu_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, 1.0, slope)
