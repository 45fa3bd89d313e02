import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdetect.errors import TrainingDivergedError
from sgdetect.neural.layers import BatchNorm, DenseLayer, GILayer
from sgdetect.neural.model import (
    ModelConfig,
    build_archetype,
    count_parameters,
    load_model,
    save_model,
)
from sgdetect.neural.training import (
    Adam,
    EarlyStopping,
    ReduceLROnPlateau,
    TrainConfig,
    mean_absolute_error,
    predict_batch,
    train,
    weighted_bce,
)
from sgdetect.synth_data import DatasetSplit, Sample


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
        dense = x.reshape(7, 65) @ layer.masked_dense_matrix() + layer.b.reshape(-1)
        np.testing.assert_allclose(out.reshape(7, 65), dense, rtol=1e-12)

    def test_masked_dense_equivalence_multifeature(self, tiny_graph, rng):
        n = tiny_graph.n_points
        a_hat = tiny_graph.adjacency_matrix().toarray() + np.eye(n)
        layer = GILayer(a_hat, k=3, f=2, rng=rng)
        x = rng.normal(size=(4, n, 3))
        out = layer.forward(x)
        dense = x.reshape(4, n * 3) @ layer.masked_dense_matrix() + layer.b.reshape(-1)
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
        dx_dense = (probe.reshape(3, n * 2) @ layer.masked_dense_matrix().T)
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
        zero_mask = layer.masked_dense_matrix() == 0.0
        adam = Adam(layer.params())
        for _ in range(5):
            out = layer.forward(rng.normal(size=(4, n, 1)))
            _, dout = quadratic_probe(out, rng.normal(size=out.shape))
            layer.backward(dout)
            adam.step(layer.params(), layer.grads(), 0.05)
        assert np.all(layer.masked_dense_matrix()[zero_mask] == 0.0)


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
            return 0.5 * float(np.sum(probe * bn.forward(x, training=True) ** 2))

        out = bn.forward(x, training=True)
        dx = bn.backward(probe * out)
        check_param_grads(loss, bn.params(), bn.grads(), rng)
        check_param_grads(loss, [x], [dx], rng)

    def test_batchnorm_3d_input(self, rng):
        bn = BatchNorm(3)
        x = rng.normal(size=(4, 5, 3))
        probe = rng.normal(size=(4, 5, 3))

        def loss():
            return 0.5 * float(np.sum(probe * bn.forward(x, training=True) ** 2))

        out = bn.forward(x, training=True)
        dx = bn.backward(probe * out)
        check_param_grads(loss, [x], [dx], rng)

    def test_batchnorm_backward_needs_training_forward(self, rng):
        bn = BatchNorm(3)
        x = rng.normal(size=(6, 3))
        with pytest.raises(RuntimeError, match="training-mode forward"):
            bn.backward(x)
        bn.forward(x, training=True)
        bn.forward(x, training=False)  # an inference forward drops the cache
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
            return weighted_bce(model.forward(x, training=True), y, 0.5, 1.5)

        p_hat = model.forward(x, training=True)
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

    def test_parameter_count_4d(self, graph4d):
        ginn = build_archetype(ModelConfig(kind="ginn", features=15), graph4d, seed=0)
        assert count_parameters(ginn) == 1_263_540

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
        model.forward(x, training=True)  # move batch-norm stats off their init
        before = model.predict(x)
        save_model(model, tmp_path / "model.json")
        back = load_model(tmp_path / "model.json")
        np.testing.assert_array_equal(back.predict(x), before)
        assert back.grid_hash == model.grid_hash

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
        np.testing.assert_array_equal(predict_batch(model, x)[0],
                                      predict_batch(model, x[:1])[0])


def _toy_split(n_points, rng, size=30):
    samples = []
    for _ in range(size):
        x = rng.normal(size=n_points)
        labels = (x > 0.5).astype(np.uint8)
        samples.append(Sample(inputs=x, labels=labels))
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

    def test_early_stop_restores_best(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=1)
        split = _toy_split(model.n_points, rng)
        config = TrainConfig(max_epochs=200, seed=1)
        history = train(model, split, config)
        if history.stopped_early:
            best = min(history.val_loss)
            from sgdetect.neural.training import evaluate_loss
            from sgdetect.neural.training import _prepare

            x_val, y_val = _prepare(split.validation)
            assert evaluate_loss(model, x_val, y_val, 0.5, 1.5) == pytest.approx(best)

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

    def test_mae_metric(self, tiny_graph, rng):
        model = build_archetype(ModelConfig(kind="mlp"), tiny_graph, seed=0)
        split = _toy_split(model.n_points, rng)
        mae = mean_absolute_error(model, split.test)
        assert 0.0 <= mae <= 1.0
