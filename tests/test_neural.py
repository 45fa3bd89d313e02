import hashlib
import json
import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from sgdetect.detectors import SAMPLE_BUDGET
from sgdetect.errors import MalformedFileError, TrainingDivergedError
from sgdetect.neural.layers import BatchNorm, DenseLayer, GILayer, leaky_relu, leaky_relu_grad
from sgdetect.neural.model import (
    ArchetypeModel,
    ModelConfig,
    Storage,
    build_archetype,
    count_parameters,
    load_model,
    save_model,
)
from sgdetect.neural import layers as layers_mod
from sgdetect.neural import model as model_mod
from sgdetect.neural import training
from sgdetect.neural.training import (
    BETA1,
    BETA2,
    EPS,
    Adam,
    EarlyStopping,
    ReduceLROnPlateau,
    TrainConfig,
    _prepare,
    evaluate_loss,
    evaluate_metrics,
    train,
    weighted_bce,
)
from sgdetect.synth_data import DatasetSplit, Samples


def central_difference(fn, arr, idx, h=1e-6):
    old = arr.flat[idx]
    arr.flat[idx] = old + h
    up = fn()
    arr.flat[idx] = old - h
    down = fn()
    arr.flat[idx] = old
    return (up - down) / (2 * h)


def check_param_grads(fn_loss, params, grads, rng, n_probes=4, tol=1e-5):
    """Compare analytic gradients with central differences on random entries."""
    worst = 0.0
    for arr, gar in zip(params, grads):
        for idx in rng.choice(arr.size, size=min(n_probes, arr.size), replace=False):
            fd = central_difference(fn_loss, arr, idx)
            denom = max(abs(fd), abs(gar.flat[idx]), 1e-8)
            worst = max(worst, abs(fd - gar.flat[idx]) / denom)
    assert worst < tol, f"gradient mismatch {worst:.2e}"
    return worst


def quadratic_probe(out, weights):
    """Scalar test loss 0.5 * sum(w * out^2) with analytic upstream gradient."""
    return 0.5 * float(np.sum(weights * out**2)), weights * out


class TestGIForward:
    def test_zero_params_zero_output(self, rng):
        a_hat = np.eye(4) + (rng.random((4, 4)) < 0.5)
        layer = GILayer(a_hat, k=2, f=3, rng=rng)
        layer.w[...] = 0.0
        layer.b[...] = 0.0
        assert np.all(layer.forward(rng.normal(size=(5, 4, 2))) == 0.0)

    def test_two_node_hand_expansion(self, rng):
        # single edge with unit weight: out_i = w1 x1 + w2 x2 + b_i
        a_hat = np.array([[1.0, 1.0], [1.0, 1.0]])
        layer = GILayer(a_hat, k=1, f=1, rng=rng)
        w1, w2 = 0.3, -1.2
        b1, b2 = 0.05, 0.6
        layer.w[...] = np.array([w1, w2]).reshape(2, 1, 1)
        layer.b[...] = np.array([b1, b2]).reshape(2, 1)
        x1, x2 = 0.7, -0.4
        out = layer.forward(np.array([[[x1], [x2]]]))
        np.testing.assert_allclose(
            out[0, :, 0], [w1 * x1 + w2 * x2 + b1, w1 * x1 + w2 * x2 + b2])

    def test_two_node_weight_gradient(self, rng):
        # d out_1 / d w_1 = x_1 for the hand-expanded single-edge layer
        a_hat = np.ones((2, 2))
        layer = GILayer(a_hat, k=1, f=1, rng=rng)
        x = np.array([[[0.7], [-0.4]]])
        layer.forward(x)
        upstream = np.zeros((1, 2, 1))
        upstream[0, 0, 0] = 1.0
        layer.backward(upstream)
        assert layer.dw[0, 0, 0] == pytest.approx(0.7)

    def test_masked_dense_equivalence_reference_graph(self, graph2d, rng):
        # K = F = 1 on the 65-node graph: GI forward equals the dense layer
        # with the materialized constrained matrix
        a_hat = graph2d.adjacency_matrix().toarray() + np.eye(65)
        layer = GILayer(a_hat, k=1, f=1, rng=rng)
        x = rng.normal(size=(7, 65, 1))
        out = layer.forward(x)
        dense = x.reshape(7, 65) @ masked_dense_matrix(layer) + layer.b.reshape(-1)
        np.testing.assert_allclose(out.reshape(7, 65), dense, rtol=1e-12)

    def test_masked_dense_equivalence_multifeature(self, tiny_graph, rng):
        n = tiny_graph.n_points
        a_hat = tiny_graph.adjacency_matrix().toarray() + np.eye(n)
        layer = GILayer(a_hat, k=3, f=2, rng=rng)
        x = rng.normal(size=(4, n, 3))
        out = layer.forward(x)
        dense = x.reshape(4, n * 3) @ masked_dense_matrix(layer) + layer.b.reshape(-1)
        np.testing.assert_allclose(out.reshape(4, n * 2), dense, rtol=1e-12)

    def test_masked_dense_equivalence_backward(self, tiny_graph, rng):
        n = tiny_graph.n_points
        a_hat = tiny_graph.adjacency_matrix().toarray() + np.eye(n)
        layer = GILayer(a_hat, k=2, f=2, rng=rng)
        x = rng.normal(size=(3, n, 2))
        probe = rng.normal(size=(3, n, 2))
        layer.forward(x)
        dx = layer.backward(probe)
        # dense route: dL/dx = probe @ W^T
        dx_dense = (probe.reshape(3, n * 2) @ masked_dense_matrix(layer).T)
        np.testing.assert_allclose(dx.reshape(3, n * 2), dx_dense, rtol=1e-12)

    def test_shape_mismatch(self, tiny_graph, rng):
        n = tiny_graph.n_points
        layer = GILayer(np.eye(n), k=2, f=2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(3, n, 4)))

    def test_effective_matrix_sparsity_preserved_by_adam(self, tiny_graph, rng):
        n = tiny_graph.n_points
        a_hat = tiny_graph.adjacency_matrix().toarray() + np.eye(n)
        layer = GILayer(a_hat, k=1, f=1, rng=rng)
        zero_mask = masked_dense_matrix(layer) == 0.0
        adam = Adam(layer.params())
        for _ in range(5):
            out = layer.forward(rng.normal(size=(4, n, 1)))
            _, dout = quadratic_probe(out, rng.normal(size=out.shape))
            layer.backward(dout)
            adam.step(layer.params(), layer.grads(), 0.05)
        assert np.all(masked_dense_matrix(layer)[zero_mask] == 0.0)


def masked_dense_matrix(layer):
    """A GI layer's effective (N*K, N*F) dense matrix: zero wherever
    A_hat[j, i] = 0."""
    w_hat = np.einsum("jkf,ji->jkif", layer.w, layer.a_hat.toarray())
    return w_hat.reshape(layer.n * layer.k, layer.n * layer.f)


def dense_gi_reference(layer, x, dout):
    """Forward output, dw, db and dx of a GI layer through its masked dense matrix."""
    batch, n = x.shape[:2]
    w_dense = masked_dense_matrix(layer)
    x_flat = x.reshape(batch, n * layer.k)
    d_flat = dout.reshape(batch, n * layer.f)
    out = (x_flat @ w_dense + layer.b.reshape(-1)).reshape(batch, n, layer.f)
    # dw[j, k, f] = sum_i A_hat[j, i] dW[j, k, i, f] with dW = x^T dout
    dw_dense = (x_flat.T @ d_flat).reshape(n, layer.k, n, layer.f)
    dw = np.einsum("jkif,ji->jkf", dw_dense, layer.a_hat.toarray())
    dx = (d_flat @ w_dense.T).reshape(batch, n, layer.k)
    return out, dw, dout.sum(axis=0), dx


def assert_close_to_dense(got, want):
    # sums of a few hundred terms in another order: relative 1e-12, with the
    # absolute floor scaled by the array's magnitude for entries that cancel
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestSparseAggregation:
    """The CSR aggregation against the dense masked-matrix formula."""

    def _check(self, a_hat, rng, k=2, f=3, batch=5):
        layer = GILayer(a_hat, k=k, f=f, rng=rng)
        assert isinstance(layer.a_hat, sp.csr_array)
        layer.b[...] = rng.normal(size=layer.b.shape)
        n = layer.n
        x = rng.normal(size=(batch, n, k))
        dout = rng.normal(size=(batch, n, f))
        out = layer.forward(x)
        dx = layer.backward(dout)
        want_out, want_dw, want_db, want_dx = dense_gi_reference(layer, x, dout)
        assert_close_to_dense(out, want_out)
        assert_close_to_dense(layer.dw, want_dw)
        assert_close_to_dense(layer.db, want_db)
        assert_close_to_dense(dx, want_dx)

    def test_reference_graph_4d(self, graph4d, rng):
        a_hat = graph4d.adjacency_matrix() + sp.eye_array(graph4d.n_points)
        self._check(a_hat, rng)

    def test_asymmetric_random_matrix(self, rng):
        n = 40
        a_hat = np.where(rng.random((n, n)) < 0.1, rng.uniform(0.5, 2.0, (n, n)), 0.0)
        a_hat += np.eye(n)
        assert not np.array_equal(a_hat, a_hat.T)
        self._check(a_hat, rng, k=3, f=2)

    def test_model_shares_one_matrix(self, graph2d):
        model = build_archetype(ModelConfig(kind="ginn", features=2), graph2d, seed=0)
        assert isinstance(model.a_hat, sp.csr_array)
        gi_layers = [layer for layer in model._layers() if isinstance(layer, GILayer)]
        assert len(gi_layers) == 2 * model.n_blocks + 2
        assert all(layer.a_hat is model.a_hat for layer in gi_layers)
        dense = graph2d.adjacency_matrix().toarray() + np.eye(graph2d.n_points)
        np.testing.assert_array_equal(model.a_hat.toarray(), dense)


class TestLayerArithmetic:
    @pytest.mark.parametrize("node_major", [False, True])
    def test_batchnorm_statistics(self, rng, node_major):
        # momentum 0 makes the running estimates the batch statistics
        bn = BatchNorm(4, momentum=0.0)
        x = rng.normal(loc=3.0, scale=2.0, size=(6, 9, 4))
        if node_major:  # the layout GI layers hand on
            x = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        out = bn.forward(x)
        flat = x.reshape(-1, 4)
        np.testing.assert_allclose(bn.running_mean, flat.mean(0), rtol=1e-12)
        np.testing.assert_allclose(bn.running_var, flat.var(0), rtol=1e-12)
        x_hat = (flat - flat.mean(0)) / np.sqrt(flat.var(0) + bn.eps)
        np.testing.assert_allclose(out.reshape(-1, 4), x_hat, rtol=1e-12, atol=1e-12)

    def test_leaky_relu_matches_where(self, rng):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            1e308, -1e308])
        x = np.concatenate([special, rng.normal(size=200)])
        for slope in (0.0, 1e-3, 0.01, 0.3, 0.5, 0.999, np.nextafter(1.0, 0.0)):
            with np.errstate(invalid="ignore"):  # 0 * inf, in both forms
                got = leaky_relu(x, slope)
                want = np.where(x > 0, x, slope * x)
            same = got.view(np.uint64) == want.view(np.uint64)
            if slope == 0.0:
                # the one difference: max(inf, 0 * inf) is NaN where `where` gives inf
                assert np.isnan(got[x == np.inf]).all()
                same |= x == np.inf
            assert same.all(), f"slope {slope}: {x[~same]}"

    def test_leaky_relu_grad_matches_where(self, rng):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            2.2e-308, -2.2e-308, 1e308, -1e308])
        x = np.concatenate([special, rng.normal(size=200)]).reshape(2, 53, 2)
        for slope in (0.0, 0.3, 0.999):
            got = leaky_relu_grad(x, slope)
            want = np.where(x > 0, 1.0, slope)
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("slope", [0.0, 1e-3, 0.3, 0.999])
    def test_leaky_relu_grad_of_the_activation(self, rng, slope):
        # the gradient read at the activated value is the gradient read at the
        # pre-activation: the training pass caches only the activated values
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            2.2e-308, -2.2e-308, 1e308, -1e308, 1.0, -1.0])
        base = np.concatenate([special, rng.normal(size=50), special])
        for x in [base, base.reshape(2, 39)[:, ::-1], *(base[:n] for n in range(1, 30))]:
            with np.errstate(invalid="ignore"):  # 0 * inf at slope 0
                got = leaky_relu_grad(leaky_relu(x, slope), slope)
            want = leaky_relu_grad(x, slope)
            same = got.view(np.uint64) == want.view(np.uint64)
            if slope == 0.0:
                # the documented exception: +inf activates to NaN, whose gradient is 0
                assert (got[x == np.inf] == 0.0).all() and (want[x == np.inf] == 1.0).all()
                same |= x == np.inf
            assert same.all(), f"slope {slope}: {x[~same]}"


class TestLayerGradients:
    """Central-difference verification for every layer type."""

    def test_gi_layer(self, tiny_graph, rng):
        n = tiny_graph.n_points
        a_hat = tiny_graph.adjacency_matrix().toarray() + np.eye(n)
        layer = GILayer(a_hat, k=2, f=3, rng=rng)
        x = rng.normal(size=(4, n, 2))
        probe = rng.normal(size=(4, n, 3))

        def loss():
            return 0.5 * float(np.sum(probe * layer.forward(x) ** 2))

        out = layer.forward(x)
        dx = layer.backward(probe * out)
        check_param_grads(loss, layer.params(), layer.grads(), rng)

        def loss_x():
            return 0.5 * float(np.sum(probe * layer.forward(x) ** 2))

        check_param_grads(loss_x, [x], [dx], rng)

    def test_dense_layer(self, rng):
        layer = DenseLayer(6, 4, rng)
        x = rng.normal(size=(5, 6))
        probe = rng.normal(size=(5, 4))

        def loss():
            return 0.5 * float(np.sum(probe * layer.forward(x) ** 2))

        out = layer.forward(x)
        dx = layer.backward(probe * out)
        check_param_grads(loss, layer.params(), layer.grads(), rng)
        check_param_grads(loss, [x], [dx], rng)

    def test_batchnorm_train_mode(self, rng):
        bn = BatchNorm(4)
        bn.gamma[...] = rng.normal(size=4)
        bn.beta[...] = rng.normal(size=4)
        x = rng.normal(size=(9, 4))
        probe = rng.normal(size=(9, 4))
        running = (bn.running_mean.copy(), bn.running_var.copy())

        def loss():
            bn.running_mean[...], bn.running_var[...] = running  # keep side effects out
            return 0.5 * float(np.sum(probe * bn.forward(x) ** 2))

        out = bn.forward(x)
        dx = bn.backward(probe * out)
        check_param_grads(loss, bn.params(), bn.grads(), rng)
        check_param_grads(loss, [x], [dx], rng)

    def test_batchnorm_3d_input(self, rng):
        bn = BatchNorm(3)
        x = rng.normal(size=(4, 5, 3))
        probe = rng.normal(size=(4, 5, 3))

        def loss():
            return 0.5 * float(np.sum(probe * bn.forward(x) ** 2))

        out = bn.forward(x)
        dx = bn.backward(probe * out)
        check_param_grads(loss, [x], [dx], rng)

    def test_batchnorm_backward_needs_training_forward(self, rng):
        bn = BatchNorm(3)
        x = rng.normal(size=(6, 3))
        with pytest.raises(RuntimeError, match="training-mode forward"):
            bn.backward(x)
        bn.forward(x)
        expected = bn.backward(x)
        bn.forward(x)
        bn.infer(x)  # inference keeps no state: the training cache stays
        np.testing.assert_array_equal(bn.backward(x), expected)

    def test_batchnorm_backward_once_per_forward(self, rng):
        # backward returns its gradient in the forward cache and drops it
        bn = BatchNorm(3)
        x = rng.normal(size=(6, 4, 3))
        bn.forward(x)
        bn.backward(x)
        with pytest.raises(RuntimeError, match="training-mode forward"):
            bn.backward(x)

    def test_loss_gradient(self, rng):
        p_hat = rng.uniform(0.05, 0.95, size=(6, 8))
        p = (rng.random((6, 8)) < 0.4).astype(float)
        _, grad = weighted_bce(p_hat, p, 0.5, 1.5, with_grad=True)

        def loss():
            return weighted_bce(p_hat, p, 0.5, 1.5)

        check_param_grads(loss, [p_hat], [grad], rng)

    @pytest.mark.parametrize("kind", ["ginn", "mlp"])
    def test_full_archetype_end_to_end(self, tiny_graph, rng, kind):
        # covers the residual sum, sigmoid, and (ginn) feature pooling paths
        model = build_archetype(ModelConfig(kind=kind, features=3), tiny_graph, seed=3)
        n = model.n_points
        x = rng.normal(size=(5, n))
        y = (rng.random((5, n)) < 0.3).astype(float)

        def loss():
            return weighted_bce(model.forward(x), y, 0.5, 1.5)

        p_hat = model.forward(x)
        _, dp = weighted_bce(p_hat, y, 0.5, 1.5, with_grad=True)
        dx = model.backward(dp)
        check_param_grads(loss, model.parameters(), model.gradients(), rng, n_probes=3)
        check_param_grads(loss, [x], [dx], rng, n_probes=6)


class TestLoss:
    def test_perfect_prediction_near_zero(self):
        p = np.array([[1.0, 0.0, 1.0]])
        assert weighted_bce(p, p, 0.5, 1.5) < 1e-5

    def test_hand_value_troubled(self):
        loss = weighted_bce(np.array([[0.5]]), np.array([[1.0]]), 0.5, 1.5)
        assert loss == pytest.approx(1.5 * np.log(2), rel=1e-12)

    def test_hand_value_non_troubled(self):
        loss = weighted_bce(np.array([[0.5]]), np.array([[0.0]]), 0.5, 1.5)
        assert loss == pytest.approx(0.5 * np.log(2), rel=1e-12)

    def test_clipping_keeps_loss_finite(self):
        loss = weighted_bce(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), 0.5, 1.5)
        assert np.isfinite(loss)


class TestArchetype:
    def test_parameter_counts_2d(self, graph2d):
        mlp = build_archetype(ModelConfig(kind="mlp"), graph2d, seed=0)
        ginn = build_archetype(ModelConfig(kind="ginn", features=15), graph2d, seed=0)
        assert count_parameters(mlp) == 52_910
        assert count_parameters(ginn) == 173_880
        assert count_parameters(mlp, batchnorm="none") == 51_480
        assert count_parameters(ginn, batchnorm="none") == 173_550

    def test_parameter_count_4d(self, graph4d):
        ginn = build_archetype(ModelConfig(kind="ginn", features=15), graph4d, seed=0)
        mlp = build_archetype(ModelConfig(kind="mlp"), graph4d, seed=0)
        assert count_parameters(ginn) == 1_263_540
        assert count_parameters(mlp) == 2_267_254
        assert count_parameters(ginn, batchnorm="none") == 1_263_150
        assert count_parameters(mlp, batchnorm="none") == 2_256_828

    def test_unknown_parameter_count_convention(self, tiny_graph):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=0)
        with pytest.raises(ValueError, match="unknown batchnorm convention 'all'"):
            count_parameters(model, batchnorm="all")

    def test_blocks_follow_diameter(self, graph2d, tiny_graph):
        assert build_archetype(ModelConfig(kind="mlp"), graph2d, seed=0).n_blocks == 5
        assert build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=0).n_blocks == 1

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), scale=st.floats(0.01, 100))
    def test_output_range(self, tiny_graph, seed, scale):
        model = build_archetype(ModelConfig(kind="ginn", features=2), tiny_graph, seed=1)
        rng = np.random.default_rng(seed)
        p = model.predict(scale * rng.normal(size=(3, model.n_points)))
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_save_load_round_trip(self, tiny_graph, tmp_path, rng):
        model = build_archetype(ModelConfig(kind="ginn", features=3), tiny_graph, seed=5)
        x = rng.normal(size=(4, model.n_points))
        model.forward(x)  # move batch-norm stats off their init
        before = model.predict(x)
        save_model(model, tmp_path / "model.json")
        back = load_model(tmp_path / "model.json")
        np.testing.assert_array_equal(back.predict(x), before)
        assert back.grid_hash == model.grid_hash

    def test_loads_files_with_the_removed_init_field(self, tiny_graph, tmp_path, rng):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=5)
        path = save_model(model, tmp_path / "model.json")
        doc = json.loads(path.read_text())
        assert "init" not in doc["config"]
        doc["config"]["init"] = "glorot_normal"
        path.write_text(json.dumps(doc))
        x = rng.normal(size=(4, model.n_points))
        np.testing.assert_array_equal(load_model(path).predict(x), model.predict(x))

    @pytest.mark.parametrize("name,digest", [
        ("ginn2d", "cde305c2837556919354f49590d4b45b3821d4f39a8a99a70d93bb01d8b734f2"),
        ("ginn4d", "f47c2a8df5cdb88376c6a63a653e9d2e5748bbdf2af8e342a4186246d674bf94"),
    ])
    def test_resaving_a_fixture_writes_pinned_bytes(self, tmp_path, name, digest):
        # the committed files differ from these bytes only by the removed init field
        path = save_model(load_model(FIXTURES / f"{name}.json"), tmp_path / "model.json")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["ginn", "mlp"])
    @pytest.mark.parametrize("damage,message", [
        (lambda doc: doc.pop("config"), "has no 'config' entry"),
        (lambda doc: doc.update(version=2), "detector-model file of version 2"),
        (lambda doc: doc["layers"][-1].pop("w"), "has no 'w' entry"),
        (lambda doc: doc["config"].update(kind="cnn"), "model kind must be"),
        (lambda doc: doc["layers"].pop(), "holds 6 layers, its config builds 7"),
        (lambda doc: doc["layers"][-1].update(b=doc["layers"][-1]["b"][:1]),
         "layer 6 'b' has shape"),
    ])
    def test_load_rejects_a_damaged_document(self, tiny_graph, tmp_path, kind, damage,
                                             message):
        # the tiny graph builds l1, bn1, one block of four and l_fin: seven layers
        path = save_model(build_archetype(ModelConfig(kind=kind, features=2), tiny_graph,
                                          seed=5), tmp_path / "model.json")
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError, match=message):
            load_model(path)

    def test_round_trip_rebuilds_the_same_matrix(self, graph2d, tmp_path, rng):
        # A_hat from the stored triples equals A_hat from the graph, entry by entry
        model = build_archetype(ModelConfig(kind="ginn", features=2), graph2d, seed=4)
        x = rng.normal(size=(5, model.n_points))
        model.forward(x)
        back = load_model(save_model(model, tmp_path / "model.json"))
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(back.a_hat, attr),
                                          getattr(model.a_hat, attr))
        np.testing.assert_array_equal(back.predict(x), model.predict(x))

    @pytest.mark.parametrize("graph", ["tiny_graph", "graph2d", "graph4d"])
    def test_a_hat_is_the_graph_matrix_plus_identity(self, graph, request):
        # built from the model's stored triples, as a loaded model builds it
        graph = request.getfixturevalue(graph)
        a_hat = build_archetype(ModelConfig(kind="ginn", features=2), graph).a_hat
        want = sp.csr_array(graph.adjacency_matrix() + sp.eye_array(graph.n_points))
        want.sum_duplicates()
        assert a_hat.has_canonical_format
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a_hat, attr), getattr(want, attr))

    def test_predict_row_independence(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=2)
        x = rng.normal(size=(6, model.n_points))
        p = model.predict(x)
        perm = rng.permutation(6)
        np.testing.assert_array_equal(model.predict(x[perm]), p[perm])

    def test_predict_duplicate_rows_identical(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="ginn", features=2), tiny_graph, seed=2)
        row = rng.normal(size=(1, model.n_points))
        p = model.predict(np.vstack([row, row]))
        np.testing.assert_array_equal(p[0], p[1])

    def test_single_row_equals_batch_row(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="ginn", features=2), tiny_graph, seed=2)
        x = rng.normal(size=(3, model.n_points))
        np.testing.assert_array_equal(model.predict(x)[0], model.predict(x[:1])[0])


def layer_arrays(model):
    """Every parameter, running statistic and gradient, as the layers hold them."""
    params, stats, grads = [], [], []
    for layer in model._layers():
        params.extend(layer.params())
        if isinstance(layer, BatchNorm):
            stats.extend((layer.running_mean, layer.running_var))
        grads.extend(layer.grads())
    return params, stats, grads


class TestLayerArrays:
    """Each layer class names the arrays it owns once, in PARAMS and STATS."""

    @pytest.mark.parametrize("make", [
        lambda: GILayer(np.eye(3), k=2, f=4, rng=np.random.default_rng(0)),
        lambda: DenseLayer(3, 4, np.random.default_rng(0)),
        lambda: BatchNorm(4),
    ], ids=["gi", "dense", "batchnorm"])
    def test_declared_names_are_the_arrays_the_layer_holds(self, make):
        layer = make()
        assert all(a is getattr(layer, name)
                   for a, name in zip(layer.params(), layer.PARAMS, strict=True))
        assert all(g is getattr(layer, "d" + name)
                   for g, name in zip(layer.grads(), layer.PARAMS, strict=True))
        assert layer.n_params == sum(getattr(layer, name).size for name in layer.PARAMS)
        # between passes a layer holds no array that its declaration leaves out
        held = {name for name, value in vars(layer).items() if isinstance(value, np.ndarray)}
        assert held == {*layer.PARAMS, *layer.STATS, *("d" + name for name in layer.PARAMS)}


@pytest.fixture(scope="module")
def storage_models(graph2d, graph4d):
    """65- and 401-point GINNs and MLPs; the 401-point GINN has two blocks."""
    a_hat = build_archetype(ModelConfig(), graph4d).a_hat
    return {
        "ginn 65": build_archetype(ModelConfig(), graph2d, seed=1),
        "mlp 65": build_archetype(ModelConfig(kind="mlp"), graph2d, seed=2),
        "ginn 401": ArchetypeModel(ModelConfig(), graph4d.n_points, 2, a_hat,
                                   np.random.default_rng(3)),
        "mlp 401": build_archetype(ModelConfig(kind="mlp"), graph4d, seed=4),
    }


STORAGE_MODELS = ["ginn 65", "mlp 65", "ginn 401", "mlp 401"]


class TestStorage:
    """Arrays under SAMPLE_BUDGET elements live in two packed buffers."""

    @pytest.mark.parametrize("name", STORAGE_MODELS)
    def test_small_arrays_and_only_they_share_the_buffers(self, storage_models, name):
        model = storage_models[name]
        state_buffer, grad_buffer = model.storage.state[0], model.storage.grads[0]
        params, stats, grads = layer_arrays(model)
        for arrays, home, other in ((params + stats, state_buffer, grad_buffer),
                                    (grads, grad_buffer, state_buffer)):
            for arr in arrays:
                assert not np.shares_memory(arr, other)
                if arr.size < SAMPLE_BUDGET:
                    assert np.shares_memory(arr, home)
                else:
                    assert not np.shares_memory(arr, home)
                    assert arr.flags.owndata

    @pytest.mark.parametrize("name", STORAGE_MODELS)
    def test_layout(self, storage_models, name):
        # the small parameters in parameter order, then the running statistics;
        # the gradient buffer in the same order; then each large array
        model = storage_models[name]
        storage = model.storage
        params, stats, _ = layer_arrays(model)
        small = [p for p in params if p.size < SAMPLE_BUDGET]
        np.testing.assert_array_equal(storage.state[0],
                                      np.concatenate([a.ravel() for a in small + stats]))
        assert np.shares_memory(storage.params[0], storage.state[0])
        assert storage.params[0].size == sum(p.size for p in small)
        large = [p for p in params if p.size >= SAMPLE_BUDGET]
        large_grads = [g for g in model.gradients() if g.size >= SAMPLE_BUDGET]
        assert all(a is b for a, b in zip(storage.params[1:], large, strict=True))
        assert all(a is b for a, b in zip(storage.state[1:], large, strict=True))
        assert all(a is b for a, b in zip(storage.grads[1:], large_grads, strict=True))
        assert len(storage.params) == len(storage.grads) == len(storage.state)
        assert len(large) == {"ginn 65": 0, "mlp 65": 0, "ginn 401": 5, "mlp 401": 14}[name]

    @pytest.mark.parametrize("name", STORAGE_MODELS)
    def test_no_two_storage_arrays_overlap(self, storage_models, name):
        arrays = [*storage_models[name].storage.state, *storage_models[name].storage.grads]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("name", STORAGE_MODELS)
    def test_sizes_add_up(self, storage_models, name):
        model = storage_models[name]
        storage = model.storage
        stats = sum(a.size for a in layer_arrays(model)[1])
        assert sum(a.size for a in storage.params) == count_parameters(model)
        assert [a.shape for a in storage.grads] == [a.shape for a in storage.params]
        assert sum(a.size for a in storage.state) == count_parameters(model) + stats

    @pytest.mark.parametrize("name", STORAGE_MODELS)
    def test_storage_holds_exactly_the_declared_arrays(self, storage_models, name):
        # each declared array lies in one storage array, no two overlap, and
        # their sizes add up to the storage's: they tile it
        model = storage_models[name]
        layers = list(model._layers())
        state = [getattr(layer, n) for layer in layers for n in layer.PARAMS + layer.STATS]
        grads = [getattr(layer, "d" + n) for layer in layers for n in layer.PARAMS]
        for arrays, storage in ((state, model.storage.state), (grads, model.storage.grads)):
            assert sum(a.size for a in arrays) == sum(a.size for a in storage)
            for i, a in enumerate(arrays):
                assert sum(np.shares_memory(a, home) for home in storage) == 1
                assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    @pytest.mark.parametrize("kind", ["ginn", "mlp"])
    def test_backward_writes_into_the_gradient_buffer(self, graph2d, rng, kind):
        model = build_archetype(ModelConfig(kind=kind), graph2d, seed=5)
        views = model.gradients()
        x = rng.normal(size=(9, model.n_points))
        model.forward(x)
        model.backward(rng.normal(size=x.shape))
        # each layer's dw, db, dgamma and dbeta is still the view it was built with
        assert all(a is b for a, b in zip(model.gradients(), views, strict=True))
        buffer = model.storage.grads[0]
        np.testing.assert_array_equal(buffer, np.concatenate([g.ravel() for g in views]))
        assert np.count_nonzero(buffer) > buffer.size // 2

    @pytest.mark.parametrize("kind,graph", [("ginn", "graph2d"), ("mlp", "graph2d"),
                                            ("mlp", "graph4d")])
    def test_save_load_save_is_byte_identical(self, tmp_path, request, rng, kind, graph):
        # the 401-point MLP has one block, so its three weight matrices are the
        # large arrays that keep their own allocation
        graph = request.getfixturevalue(graph)
        if graph.n_points > 100:
            model = ArchetypeModel(ModelConfig(kind=kind), graph.n_points, 1, None,
                                   np.random.default_rng(6))
        else:
            model = build_archetype(ModelConfig(kind=kind), graph, seed=6)
        x = rng.normal(size=(20, model.n_points))
        model.forward(x)  # move batch-norm stats off their init
        first = save_model(model, tmp_path / "first.json")
        back = load_model(first)
        second = save_model(back, tmp_path / "second.json")
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(back.predict(x), model.predict(x))
        assert [a.shape for a in back.storage.state] == [a.shape for a in model.storage.state]
        for a, b in zip(back.storage.state, model.storage.state):
            np.testing.assert_array_equal(a, b)

    def test_loader_draws_no_weights(self, tmp_path, graph2d, monkeypatch):
        path = save_model(build_archetype(ModelConfig(), graph2d, seed=7), tmp_path / "m.json")
        draws = []
        original = layers_mod.glorot_normal

        def spy(rng, *args, **kwargs):
            draws.append(rng)
            return original(rng, *args, **kwargs)

        monkeypatch.setattr(layers_mod, "glorot_normal", spy)
        load_model(path)
        assert len(draws) == 12 and all(rng is None for rng in draws)


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def reference_predict(model, x):
    """The inference forward that blocking replaced: 1,024 rows per pass and
    a fresh array at every step."""
    ginn = model.config.kind == "ginn"
    slope = model.config.leaky_slope

    def affine(layer, h):
        if not ginn:
            return h @ layer.w + layer.b
        t = np.matmul(h.transpose(1, 0, 2), layer.w)
        out = (layer.a_hat.T @ t.reshape(layer.n, -1)).reshape(layer.n, len(h), layer.f)
        out += layer.b[:, None, :]
        return out.transpose(1, 0, 2)

    def batchnorm(layer, h):
        inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
        x_hat = h - layer.running_mean
        x_hat *= inv_std
        out = x_hat * layer.gamma
        out += layer.beta
        return out

    def forward(rows):
        s = leaky_relu(affine(model.l1, rows[:, :, None] if ginn else rows), slope)
        z = batchnorm(model.bn1, s)
        for lp, bnp, lpp, bnpp in model.blocks:
            v = batchnorm(bnp, leaky_relu(affine(lp, z), slope))
            s = leaky_relu(affine(lpp, v) + s, slope)
            z = batchnorm(bnpp, s)
        q = expit(affine(model.l_fin, z))
        return q.mean(axis=2) if ginn else q

    parts = [forward(x[lo : lo + 1024]) for lo in range(0, len(x), 1024)]
    return np.concatenate(parts) if parts else np.zeros((0, model.n_points))


def row_bound(model):
    if model.config.kind == "mlp":
        return 1024
    return max(3, SAMPLE_BUDGET // (model.n_points * model.config.features))


def randomized(model, seed):
    """The model with random biases, batch-norm scales, shifts and running
    statistics, so that no inference step is an identity."""
    rng = np.random.default_rng(seed)
    for layer in model._layers():
        if isinstance(layer, BatchNorm):
            for arr in (layer.gamma, layer.beta, layer.running_mean):
                arr[...] = rng.normal(size=arr.shape)
            layer.running_var[...] = rng.uniform(0.2, 3.0, size=layer.running_var.shape)
        else:
            layer.b[...] = rng.normal(scale=0.3, size=layer.b.shape)
    return model


@pytest.fixture(scope="module")
def predict_models(graph2d, graph4d):
    """Fixture GINNs and random 65- and 401-point GINNs and MLPs, by name.
    The 401-point GINN has two blocks, not the six its graph implies: the
    blocking and the residual stream are the same, at a sixth of the cost."""
    a_hat = build_archetype(ModelConfig(), graph4d).a_hat
    rng = np.random.default_rng(0)
    return {
        "fixture ginn2d": load_model(FIXTURES / "ginn2d.json"),
        "fixture ginn4d": load_model(FIXTURES / "ginn4d.json"),
        "ginn 65": randomized(build_archetype(ModelConfig(), graph2d, seed=1), 1),
        "ginn 401": randomized(ArchetypeModel(ModelConfig(), graph4d.n_points, 2, a_hat,
                                              rng), 2),
        "mlp 65": randomized(build_archetype(ModelConfig(kind="mlp"), graph2d, seed=3), 3),
        "mlp 401": randomized(build_archetype(ModelConfig(kind="mlp"), graph4d, seed=4), 4),
    }


class TestPredict:
    @pytest.mark.parametrize("name", ["fixture ginn2d", "fixture ginn4d", "ginn 65",
                                      "ginn 401", "mlp 65", "mlp 401"])
    def test_bit_equal_to_the_unblocked_forward(self, predict_models, name):
        model = predict_models[name]
        bound = row_bound(model)
        x = 3.0 * np.random.default_rng(5).normal(size=(1500, model.n_points))
        for rows in sorted({0, 1, bound - 1, bound, bound + 1, 1500}):
            p = model.predict(x[:rows])
            assert p.shape == (rows, model.n_points)
            np.testing.assert_array_equal(p, reference_predict(model, x[:rows]))

    @pytest.mark.parametrize("name,bound", [("fixture ginn2d", 33), ("ginn 401", 5),
                                            ("mlp 65", 1024)])
    def test_no_layer_call_sees_more_rows_than_the_bound(self, predict_models, name,
                                                         bound, monkeypatch):
        model = predict_models[name]
        layer = GILayer if model.config.kind == "ginn" else DenseLayer
        seen = []
        original = layer.infer

        def spy(self, h):
            seen.append(len(h))
            return original(self, h)

        monkeypatch.setattr(layer, "infer", spy)
        model.predict(np.zeros((1500, model.n_points)))
        assert row_bound(model) == bound
        assert max(seen) <= bound
        # the 1,024- and 476-row chunks split evenly into the fewest blocks,
        # each of which passes through the model's 2 + 2 * n_blocks layers
        blocks = -(-1024 // bound) + -(-476 // bound)
        assert len(seen) == blocks * (2 + 2 * model.n_blocks)
        assert min(seen) > 1

    @pytest.mark.parametrize("rows", [3, 0])
    def test_rejects_a_wrong_shape(self, predict_models, rows):
        model = predict_models["fixture ginn2d"]
        with pytest.raises(ValueError, match=r"expected \(batch, 65\) input"):
            model.predict(np.zeros((rows, 7)))

    @pytest.mark.parametrize("kind", ["ginn", "mlp"])
    def test_runs_between_forward_and_backward(self, graph2d, kind):
        # predict keeps no state: the backward after it is the backward of a
        # plain forward -> backward
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, graph2d.n_points))
        dp = rng.normal(size=x.shape)
        grads = []
        for between in (False, True):
            model = build_archetype(ModelConfig(kind=kind), graph2d, seed=6)
            model.forward(x)
            if between:
                model.predict(x)
            dx = model.backward(dp)
            grads.append([dx, *model.gradients()])
        for a, b in zip(*grads):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["ginn", "mlp"])
    def test_fixed_seed_training_unchanged(self, graph2d, kind, monkeypatch):
        # the validation loss reads predict, and the plateau schedule and early
        # stopping read the validation loss; 35 validation rows span two GINN blocks
        split = _toy_split(graph2d.n_points, np.random.default_rng(8), size=60)
        split = DatasetSplit(train=split.train, validation=split.test, test=split.test[:0])
        config = TrainConfig(max_epochs=3, batch_size=8, seed=2)
        runs = []
        for predict in (ArchetypeModel.predict, reference_predict):
            monkeypatch.setattr(ArchetypeModel, "predict", predict)
            model = build_archetype(ModelConfig(kind=kind), graph2d, seed=9)
            history = train(model, split, config)
            runs.append((history.val_loss, [t.copy() for t in model.state()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)


def _toy_split(n_points, rng, size=30):
    x = rng.normal(size=(size, n_points))
    samples = Samples(x, (x > 0.5).astype(np.uint8))
    return DatasetSplit(train=samples[:20], validation=samples[20:25],
                        test=samples[25:])


class TestSchedulers:
    def test_plateau_constant_loss(self):
        sched = ReduceLROnPlateau(0.001, factor=0.75, patience=7)
        lr = 0.001
        for _ in range(8):
            lr = sched.update(1.0)
        assert lr == pytest.approx(0.001 * 0.75)

    def test_plateau_resets_on_improvement(self):
        sched = ReduceLROnPlateau(0.001, factor=0.75, patience=2)
        for value in (1.0, 0.9, 0.95, 0.8, 0.85, 0.9):
            lr = sched.update(value)
        assert lr == pytest.approx(0.001 * 0.75)

    def test_early_stopping_trigger_and_restore(self):
        stopper = EarlyStopping(patience=3)
        params = [np.array([0.0])]
        assert not stopper.update(1.0, params)
        params[0][0] = 42.0  # params drift after the best epoch
        stops = [stopper.update(2.0, params) for _ in range(3)]
        assert stops == [False, False, True]
        assert stopper.best_params[0][0] == 0.0

    def test_early_stopping_reuses_its_buffers(self, rng):
        stopper = EarlyStopping(patience=3)
        params = [rng.normal(size=(3, 4)), rng.normal(size=5)]
        stopper.update(1.0, params)
        buffers = stopper.best_params
        for value in (0.9, 0.8):
            for p in params:
                p += rng.normal(size=p.shape)
            snapshot = [p.copy() for p in params]
            stopper.update(value, params)
            assert all(b is c for b, c in zip(stopper.best_params, buffers))
            for best, want in zip(stopper.best_params, snapshot):
                np.testing.assert_array_equal(best, want)
        params[0][...] = 0.0  # a worse epoch leaves the snapshot alone
        stopper.update(2.0, params)
        np.testing.assert_array_equal(stopper.best_params[0], snapshot[0])


class TestTraining:
    def test_zero_learning_rate_keeps_parameters(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=0)
        before = [p.copy() for p in model.parameters()]
        split = _toy_split(model.n_points, rng)
        train(model, split, TrainConfig(max_epochs=1, learning_rate=0.0, seed=0))
        for old, new in zip(before, model.parameters()):
            np.testing.assert_array_equal(old, new)

    def test_toy_training_loss_decreases(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="ginn", features=3), tiny_graph, seed=0)
        split = _toy_split(model.n_points, rng, size=40)
        history = train(model, split, TrainConfig(max_epochs=5, seed=0))
        diffs = np.diff(history.train_loss)
        assert np.all(diffs < 0)

    def test_determinism_bit_identical(self, tiny_graph, rng):
        split = _toy_split(5, rng, size=30)
        runs = []
        for _ in range(2):
            model = build_archetype(ModelConfig(kind="ginn", features=3),
                                    tiny_graph, seed=7)
            train(model, split, TrainConfig(max_epochs=3, seed=7))
            runs.append([p.copy() for p in model.parameters()])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["ginn", "mlp"])
    def test_activation_gradient_keeps_training_bit_identical(self, tiny_graph, rng,
                                                              monkeypatch, kind):
        split = _toy_split(5, rng, size=30)
        runs = []
        for grad in (leaky_relu_grad, lambda x, slope: np.where(x > 0, 1.0, slope)):
            monkeypatch.setattr(model_mod, "leaky_relu_grad", grad)
            model = build_archetype(ModelConfig(kind=kind, features=3), tiny_graph, seed=3)
            train(model, split, TrainConfig(max_epochs=3, seed=3))
            runs.append(model.state())
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_early_stop_restores_best(self, tiny_graph, rng):
        # flipped validation labels turn the validation loss upward, so the
        # run stops early, after its best epoch
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=1)
        split = _toy_split(model.n_points, rng)
        split.validation = Samples(split.validation.inputs, 1 - split.validation.labels)
        config = TrainConfig(max_epochs=200, early_stop_patience=5, seed=1)
        history = train(model, split, config)
        assert history.stopped_early
        assert np.argmin(history.val_loss) < history.epochs - 1
        # the restored model, batch-norm running statistics included, is the
        # best epoch's model, so it reproduces that epoch's loss exactly
        x_val, y_val = _prepare(split.validation)
        assert evaluate_loss(model, x_val, y_val) == min(history.val_loss)

    def test_last_epoch_best_skips_the_restore(self, tiny_graph, rng, monkeypatch):
        # a one-epoch run's only epoch is its best: a restore would copy the
        # poisoned snapshot back into the model
        class Poisoned(EarlyStopping):
            def update(self, value, params):
                stop = super().update(value, params)
                for best in self.best_params:
                    best.fill(np.nan)
                return stop

        monkeypatch.setattr(training, "EarlyStopping", Poisoned)
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=1)
        train(model, _toy_split(model.n_points, rng), TrainConfig(max_epochs=1, seed=1))
        assert all(np.isfinite(a).all() for a in model.state())

    def test_divergence_raises_with_diagnostics(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=0)
        # poison a weight so the first forward pass overflows
        model.l1.w[...] = np.nan
        split = _toy_split(model.n_points, rng)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, split, TrainConfig(max_epochs=2, seed=0))
        assert "epoch" in err.value.diagnostics

    def test_history_records_lr_schedule(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=3)
        split = _toy_split(model.n_points, rng)
        history = train(model, split, TrainConfig(max_epochs=4, seed=3))
        assert len(history.learning_rate) == history.epochs
        assert history.learning_rate[0] == 0.001

    def test_logs_one_record_per_epoch(self, tiny_graph, rng, caplog):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=3)
        split = _toy_split(model.n_points, rng)
        with caplog.at_level(logging.INFO, logger="sgdetect.neural.training"):
            history = train(model, split, TrainConfig(max_epochs=3, seed=3))
        records = [r for r in caplog.records if r.name == "sgdetect.neural.training"]
        assert len(records) == history.epochs == 3
        for epoch, record in enumerate(records, start=1):
            _, train_loss, val_loss, lr, seconds = record.args
            assert record.args[0] == epoch
            assert train_loss == history.train_loss[epoch - 1]
            assert val_loss == history.val_loss[epoch - 1]
            assert lr == history.learning_rate[epoch - 1]
            assert seconds >= 0.0
            assert record.getMessage().startswith(f"epoch {epoch}: train loss ")

    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"max_epochs": 0},
                                        {"batch_size": -3}, {"learning_rate": -1e-3},
                                        {"learning_rate": np.nan}])
    def test_train_config_rejects_out_of_range_values(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("slope", [-0.1, 1.0, 2.0, np.nan, np.inf])
    def test_model_config_rejects_bad_slopes(self, slope):
        with pytest.raises(ValueError, match="leaky_slope"):
            ModelConfig(leaky_slope=slope)

    def test_mae_metric(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=0)
        split = _toy_split(model.n_points, rng)
        mae = evaluate_metrics(model, split.test)["mae"]
        assert 0.0 <= mae <= 1.0


class ReferenceAdam:
    """The whole-array step that blocking replaced: a fresh array at every
    operation."""

    def __init__(self, params):
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads, lr):
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m[...] = BETA1 * m + (1.0 - BETA1) * g
            v[...] = BETA2 * v + (1.0 - BETA2) * g * g
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)


B = SAMPLE_BUDGET
ADAM_SHAPES = [(1,), (B - 1,), (B,), (B + 1,), (2 * B + 7,), (401, 401), (401, 15, 15)]


def adam_gradient(rng, shape):
    """Normal entries with zeros, +-1e-300 and 1e3 mixed in."""
    g = rng.normal(size=shape)
    flat = g.reshape(-1)
    special = rng.integers(0, 5, size=flat.size)
    flat[special == 0] = 0.0
    flat[special == 1] = 1e-300
    flat[special == 2] = -1e-300
    flat[special == 3] = 1e3
    return g


class TestAdam:
    @pytest.mark.parametrize("shapes", [[s] for s in ADAM_SHAPES] + [ADAM_SHAPES],
                             ids=[str(s) for s in ADAM_SHAPES] + ["all"])
    def test_bit_equal_to_the_whole_array_step(self, shapes):
        rng = np.random.default_rng(len(shapes) + shapes[0][0])
        start = [rng.normal(size=s) for s in shapes]
        runs = []
        for cls in (Adam, ReferenceAdam):
            params = [p.copy() for p in start]
            adam = cls(params)
            for lr in (1e-3, 1e-3, 0.05, 0.05):
                grads = [adam_gradient(np.random.default_rng(adam.t), s) for s in shapes]
                adam.step(params, grads, lr)
            runs.append([*params, *adam.m, *adam.v])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    def test_scratch_fits_the_largest_parameter(self):
        assert Adam([np.zeros(7), np.zeros((3, 4))])._scratch.shape == (2, 12)
        assert Adam([np.zeros(3), np.zeros(B + 5)])._scratch.shape == (2, B)
        assert Adam([])._scratch.shape == (2, 0)

    def test_step_allocates_no_parameter_sized_buffer(self, rng):
        # the whole-array step peaks at 3.68 MB on these: 2.9 parameters' worth
        params = [rng.normal(size=(401, 401)), rng.normal(size=401)]
        grads = [rng.normal(size=p.shape) for p in params]
        adam = Adam(params)
        tracemalloc.start()
        try:
            adam.step(params, grads, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_rejects_a_missing_or_extra_parameter(self):
        adam = Adam([np.zeros(3), np.zeros(2)])
        before = [p.copy() for p in adam.m]
        with pytest.raises(ValueError, match="expected 2 params and grads"):
            adam.step([np.zeros(3), np.zeros(2)], [np.ones(3)], 0.1)
        with pytest.raises(ValueError, match="expected 2 params and grads"):
            adam.step([np.zeros(3)], [np.ones(3), np.ones(2)], 0.1)
        with pytest.raises(ValueError, match="expected 2 params and grads"):
            adam.step([np.zeros(3), np.zeros(2), np.zeros(1)], [np.ones(3), np.ones(2)], 0.1)
        assert adam.t == 0
        for m, old in zip(adam.m, before):
            np.testing.assert_array_equal(m, old)

    @pytest.mark.parametrize("param,grad", [((3,), (1,)), ((3,), (1, 3)), ((1, 3), (1, 3)),
                                            ((3,), (4,))])
    def test_rejects_a_wrong_shape(self, param, grad):
        adam = Adam([np.zeros(3)])
        p = np.zeros(param)
        with pytest.raises(ValueError, match="parameter 0: expected shape"):
            adam.step([p], [np.ones(grad)], 0.1)
        assert adam.t == 0
        assert not p.any()

    def test_rejects_a_non_contiguous_parameter(self):
        grid = np.zeros((4, 6))
        with pytest.raises(ValueError, match="parameter 1 is not C-contiguous"):
            Adam([np.zeros(2), grid[:, ::2]])
        with pytest.raises(ValueError, match="parameter 0 is not C-contiguous"):
            Adam([grid.T])
        adam = Adam([np.zeros((6, 4))])
        with pytest.raises(ValueError, match="parameter 0 is not C-contiguous"):
            adam.step([grid.T], [np.ones((6, 4))], 0.1)

    @pytest.mark.parametrize("kind,graph", [("ginn", "graph2d"), ("mlp", "graph2d"),
                                            ("mlp", "graph4d")])
    def test_fixed_seed_training_unchanged(self, kind, graph, request, monkeypatch):
        # the blocked step over the model's storage lists against the whole-array
        # step on the same lists, and on each array with per-array snapshots;
        # the 401-point MLP's 401 x 401 weights span five blocks; at this
        # learning rate the validation loss rises within 8 epochs, so early
        # stopping restores an earlier epoch
        graph = request.getfixturevalue(graph)
        split = _toy_split(graph.n_points, np.random.default_rng(8), size=40)
        config = TrainConfig(max_epochs=8, batch_size=8, seed=2, learning_rate=0.01,
                             early_stop_patience=1)
        runs = []
        for optimizer, per_array in ((Adam, False), (ReferenceAdam, False),
                                     (ReferenceAdam, True)):
            monkeypatch.setattr(training, "Adam", optimizer)
            model = build_archetype(ModelConfig(kind=kind), graph, seed=9)
            if per_array:
                model.storage = Storage(model.parameters(), model.gradients(), model.state())
            history = train(model, split, config)
            assert history.stopped_early and history.val_loss[-1] > min(history.val_loss)
            runs.append((history.val_loss, [t.copy() for t in model.state()]))
        for val_loss, state in runs[1:]:
            assert val_loss == runs[0][0]
            for a, b in zip(state, runs[0][1], strict=True):
                np.testing.assert_array_equal(a, b)


class TestGradientBuffers:
    """Backward writes dw and db into the layer's own arrays."""

    @pytest.mark.parametrize("batch", [1, 2, 13, 64])
    def test_dense_layer_bit_equal(self, rng, batch):
        layer = DenseLayer(37, 23, rng)
        dw, db = layer.grads()
        x = rng.normal(size=(batch, 37))
        dout = rng.normal(size=(batch, 23))
        layer.forward(x)
        layer.backward(dout)
        assert layer.dw is dw and layer.db is db
        np.testing.assert_array_equal(dw, x.T @ dout)
        np.testing.assert_array_equal(db, dout.sum(axis=0))

    @pytest.mark.parametrize("batch", [1, 2, 13, 64])
    def test_gi_layer_bit_equal(self, graph2d, rng, batch):
        n = graph2d.n_points
        layer = GILayer(graph2d.adjacency_matrix() + sp.eye_array(n), k=3, f=4, rng=rng)
        dw, db = layer.grads()
        x = rng.normal(size=(batch, n, 3))
        dout = rng.normal(size=(batch, n, 4))
        layer.forward(x)
        layer.backward(dout)
        assert layer.dw is dw and layer.db is db
        # per node j: dw[j] = x[:, j].T @ dt[j], with dt the aggregated upstream
        dt = (layer.a_hat @ dout.transpose(1, 0, 2).reshape(n, -1)).reshape(n, batch, 4)
        np.testing.assert_array_equal(dw, np.matmul(x.transpose(1, 2, 0), dt))
        np.testing.assert_array_equal(db, dout.sum(axis=0))

    @pytest.mark.parametrize("node_major", [False, True])
    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("graph", ["graph2d", "graph4d"])
    def test_gi_bias_gradient_bit_equal_to_the_batch_sum(self, request, rng, graph, batch,
                                                          node_major):
        graph = request.getfixturevalue(graph)
        n = graph.n_points
        layer = GILayer(graph.adjacency_matrix() + sp.eye_array(n), k=2, f=15, rng=rng)
        layer.forward(rng.normal(size=(batch, n, 2)))
        dout = rng.normal(size=(batch, n, 15))
        if node_major:  # the layout the model hands back from a GI layer
            dout = np.ascontiguousarray(dout.transpose(1, 0, 2)).transpose(1, 0, 2)
        layer.backward(dout)
        np.testing.assert_array_equal(layer.db.view(np.uint64),
                                      np.sum(dout, axis=0).view(np.uint64))

    @pytest.mark.parametrize("kind", ["dense", "gi"])
    def test_backward_allocates_no_gradient_sized_buffer(self, graph4d, rng, kind):
        if kind == "dense":
            layer, shape = DenseLayer(401, 401, rng), (2, 401)
        else:
            a_hat = graph4d.adjacency_matrix() + sp.eye_array(graph4d.n_points)
            layer, shape = GILayer(a_hat, k=15, f=15, rng=rng), (2, 401, 15)
        layer.forward(rng.normal(size=shape))
        dout = rng.normal(size=shape)
        tracemalloc.start()
        try:
            layer.backward(dout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layer.dw.nbytes / 2


def reference_layer_backward(layer, dout):
    """A layer's backward pass as it was before it wrote into its forward
    cache: a fresh array at every step, bias sums by ``np.sum``."""
    if isinstance(layer, BatchNorm):
        x_hat, inv_std = layer._cache
        m = x_hat.size // x_hat.shape[-1]
        layer.dgamma[...] = layers_mod._feature_sum(dout, x_hat)
        layer.dbeta[...] = layers_mod._feature_sum(dout)
        dx = x_hat * (layer.dgamma / m)
        dx += layer.dbeta / m
        np.subtract(dout, dx, out=dx)
        dx *= layer.gamma * inv_std
        return dx
    if isinstance(layer, DenseLayer):
        np.matmul(layer._x.T, dout, out=layer.dw)
        np.sum(dout, axis=0, out=layer.db)
        return dout @ layer.w.T
    batch = dout.shape[0]
    np.sum(dout, axis=0, out=layer.db)
    dz = dout.transpose(1, 0, 2).reshape(layer.n, batch * layer.f)
    dt = (layer.a_hat @ dz).reshape(layer.n, batch, layer.f)
    np.matmul(layer._x.transpose(1, 2, 0), dt, out=layer.dw)
    return np.matmul(dt, layer.w.transpose(0, 2, 1)).transpose(1, 0, 2)


def reference_forward(model, x):
    """The training forward before it ran in place: it caches the
    pre-activations and makes a fresh array at every step."""
    slope = model.config.leaky_slope
    ginn = model.config.kind == "ginn"
    x = np.asarray(x, dtype=np.float64)
    a1_pre = model.l1.forward(x[:, :, None] if ginn else x)
    s = leaky_relu(a1_pre, slope)
    z = model.bn1.forward(s)
    block_cache = []
    for lp, bnp, lpp, bnpp in model.blocks:
        u_pre = lp.forward(z)
        v = bnp.forward(leaky_relu(u_pre, slope))
        s_pre = lpp.forward(v) + s
        s = leaky_relu(s_pre, slope)
        z = bnpp.forward(s)
        block_cache.append((u_pre, s_pre))
    q = expit(model.l_fin.forward(z))
    model._cache = (a1_pre, block_cache, q)
    return q.mean(axis=2) if ginn else q


def reference_backward(model, dp):
    """The backward pass that matches :func:`reference_forward`."""
    a1_pre, block_cache, q = model._cache
    slope = model.config.leaky_slope
    ginn = model.config.kind == "ginn"
    if ginn:
        f = model.config.features
        dq = np.repeat(dp[:, :, None], f, axis=2) / f
    else:
        dq = dp
    dz = reference_layer_backward(model.l_fin, dq * q * (1.0 - q))
    dskip = 0.0
    for (lp, bnp, lpp, bnpp), (u_pre, s_pre) in zip(reversed(model.blocks),
                                                    reversed(block_cache)):
        ds = reference_layer_backward(bnpp, dz) + dskip
        ds_pre = ds * leaky_relu_grad(s_pre, slope)
        dskip = ds_pre
        du = reference_layer_backward(bnp, reference_layer_backward(lpp, ds_pre))
        dz = reference_layer_backward(lp, du * leaky_relu_grad(u_pre, slope))
    da1 = reference_layer_backward(model.bn1, dz) + dskip
    dh = reference_layer_backward(model.l1, da1 * leaky_relu_grad(a1_pre, slope))
    return dh[:, :, 0] if ginn else dh


def assert_bit_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def pass_model(name, slope, graph2d, graph4d):
    """A randomized model by name; the 401-point GINN has two blocks."""
    kind, n = name.split()
    config = ModelConfig(kind=kind, leaky_slope=slope)
    if n == "65":
        return randomized(build_archetype(config, graph2d, seed=21), 21)
    a_hat = build_archetype(ModelConfig(), graph4d).a_hat if kind == "ginn" else None
    return randomized(ArchetypeModel(config, graph4d.n_points, 2, a_hat,
                                     np.random.default_rng(22)), 22)


class TestTrainingPass:
    """The in-place training pass against the pass that made a fresh array
    at every step and cached pre-activations, bit for bit."""

    @pytest.mark.parametrize("slope", [0.3, 0.0])
    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("name", ["ginn 65", "mlp 65", "ginn 401", "mlp 401"])
    def test_forward_and_backward_bit_equal(self, graph2d, graph4d, name, rows, slope):
        rng = np.random.default_rng(rows)
        runs = []
        for forward, backward in ((ArchetypeModel.forward, ArchetypeModel.backward),
                                  (reference_forward, reference_backward)):
            model = pass_model(name, slope, graph2d, graph4d)
            x = 3.0 * rng.normal(size=(rows, model.n_points))
            dp = rng.normal(size=x.shape)
            p = forward(model, x.copy())
            dx = backward(model, dp.copy())
            runs.append([p.copy(), dx, *model.gradients(), *model.state()])
            rng = np.random.default_rng(rows)
        for got, want in zip(*runs, strict=True):
            assert_bit_equal(got, want)

    @pytest.mark.parametrize("slope", [0.3, 0.0])
    @pytest.mark.parametrize("kind", ["ginn", "mlp"])
    def test_fixed_seed_training_unchanged(self, graph2d, kind, slope, monkeypatch):
        # 17 training rows in batches of 8 end on a one-row batch
        split = _toy_split(graph2d.n_points, np.random.default_rng(12), size=27)
        split = DatasetSplit(train=split.train[:17], validation=split.validation,
                             test=split.test)
        config = TrainConfig(max_epochs=3, batch_size=8, seed=4)
        runs = []
        for forward, backward in ((ArchetypeModel.forward, ArchetypeModel.backward),
                                  (reference_forward, reference_backward)):
            monkeypatch.setattr(ArchetypeModel, "forward", forward)
            monkeypatch.setattr(ArchetypeModel, "backward", backward)
            model = build_archetype(ModelConfig(kind=kind, leaky_slope=slope), graph2d,
                                    seed=10)
            history = train(model, split, config)
            runs.append((history.train_loss, history.val_loss,
                         [t.copy() for t in model.state()]))
        assert runs[0][:2] == runs[1][:2]
        for got, want in zip(runs[0][2], runs[1][2], strict=True):
            assert_bit_equal(got, want)
