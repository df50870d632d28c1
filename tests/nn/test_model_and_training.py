"""Tests for the Sequential model, losses, optimizers, metrics and the zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Momentum,
    SGD,
    Sequential,
    accuracy,
    agreement,
    batch_iterator,
    binary_cross_entropy,
    distillation_loss,
    get_activation,
    get_initializer,
    get_loss,
    get_optimizer,
    make_autoencoder,
    make_depthwise_cnn,
    make_mlp,
    make_multi_fidelity_family,
    make_tiny_cnn,
    mae,
    mse,
    softmax,
    softmax_cross_entropy,
)
from repro.nn.activations import _REGISTRY as ACTIVATIONS
from repro.nn.layers import Dense


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([0, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss < 1e-4
        assert grad.shape == logits.shape

    def test_cross_entropy_gradient_numeric(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 1])
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(4):
            for j in range(3):
                plus = logits.copy()
                plus[i, j] += eps
                minus = logits.copy()
                minus[i, j] -= eps
                numeric[i, j] = (softmax_cross_entropy(plus, labels)[0] - softmax_cross_entropy(minus, labels)[0]) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_cross_entropy_accepts_soft_targets(self, rng):
        logits = rng.normal(size=(5, 4))
        soft = softmax(rng.normal(size=(5, 4)), axis=-1)
        loss, grad = softmax_cross_entropy(logits, soft)
        assert np.isfinite(loss) and grad.shape == logits.shape

    def test_mse_zero_at_target(self, rng):
        y = rng.normal(size=(6, 2))
        loss, grad = mse(y, y)
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_binary_cross_entropy_bounds(self):
        pred = np.array([[0.9], [0.1]])
        target = np.array([[1.0], [0.0]])
        loss, _ = binary_cross_entropy(pred, target)
        assert 0.0 < loss < 0.2

    def test_distillation_loss_mixes_terms(self, rng):
        student = rng.normal(size=(8, 3))
        teacher = rng.normal(size=(8, 3))
        labels = rng.integers(0, 3, size=8)
        loss_soft, _ = distillation_loss(student, teacher, labels, alpha=1.0)
        loss_hard, _ = distillation_loss(student, teacher, labels, alpha=0.0)
        loss_mix, _ = distillation_loss(student, teacher, labels, alpha=0.5)
        assert min(loss_soft, loss_hard) <= loss_mix <= max(loss_soft, loss_hard) + 1e-9

    def test_get_loss_unknown(self):
        with pytest.raises(KeyError):
            get_loss("nope")

    @pytest.mark.parametrize("loss_fn", [mse, mae, binary_cross_entropy], ids=lambda f: f.__name__)
    def test_elementwise_loss_gradient_numeric(self, loss_fn, rng):
        # Predictions in (0.1, 0.9) keep BCE off its clip, and |pred - target|
        # = 0.3 keeps MAE off its kink.
        pred = rng.uniform(0.1, 0.9, size=(4, 3))
        if loss_fn is binary_cross_entropy:
            target = np.where(pred > 0.5, 0.0, 1.0)
        else:
            target = pred + rng.choice([-0.3, 0.3], size=pred.shape)
        _, grad = loss_fn(pred, target)
        eps = 1e-6
        numeric = np.zeros_like(pred)
        for idx in np.ndindex(pred.shape):
            plus, minus = pred.copy(), pred.copy()
            plus[idx] += eps
            minus[idx] -= eps
            numeric[idx] = (loss_fn(plus, target)[0] - loss_fn(minus, target)[0]) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _quadratic_param():
    params = {"w": np.array([5.0, -3.0])}
    grads = {}
    return params, grads


@pytest.mark.parametrize("opt_name", ["sgd", "momentum", "adam"])
def test_optimizers_minimize_quadratic(opt_name):
    params, grads = _quadratic_param()
    opt = get_optimizer(opt_name, lr=0.1)
    for _ in range(300):
        grads["w"] = 2.0 * params["w"]
        opt.step([(params, grads, ())])
    assert np.abs(params["w"]).max() < 1e-2


def test_optimizer_skips_non_trainable():
    params = {"w": np.array([1.0]), "running_mean": np.array([5.0])}
    grads = {"w": np.array([1.0]), "running_mean": np.array([1.0])}
    SGD(lr=0.5).step([(params, grads, ("running_mean",))])
    assert params["running_mean"][0] == 5.0
    assert params["w"][0] == 0.5


def test_weight_decay_shrinks_weights():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.0])}
    SGD(lr=0.1, weight_decay=0.1).step([(params, grads, ())])
    assert params["w"][0] < 1.0


def test_invalid_lr():
    with pytest.raises(ValueError):
        SGD(lr=0.0)


# ---------------------------------------------------------------------------
# activations and initializers
# ---------------------------------------------------------------------------

# Kinks of the piecewise activations; samples keep clear of them.
_KINKS = np.array([-2.5, 0.0, 2.5, 6.0])


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_activation_grad_matches_finite_difference(name, rng):
    forward, grad = get_activation(name)
    x = rng.uniform(-8.0, 8.0, size=200)
    x = x[np.abs(x[:, None] - _KINKS).min(axis=1) > 1e-3]
    eps = 1e-6
    numeric = (forward(x + eps) - forward(x - eps)) / (2 * eps)
    np.testing.assert_allclose(grad(x, forward(x)), numeric, atol=1e-6)


# name -> (variance as a function of (fan_in, fan_out), uniform limit or None)
_FAN_SCALED = {
    "glorot_uniform": (lambda i, o: 2.0 / (i + o), lambda i, o: np.sqrt(6.0 / (i + o))),
    "glorot_normal": (lambda i, o: 2.0 / (i + o), None),
    "he_uniform": (lambda i, o: 2.0 / i, lambda i, o: np.sqrt(6.0 / i)),
    "he_normal": (lambda i, o: 2.0 / i, None),
}


@pytest.mark.parametrize("name", sorted(_FAN_SCALED))
def test_fan_scaled_initializer_variance(name):
    fan_in, fan_out = 300, 100
    variance, limit = _FAN_SCALED[name]
    w = get_initializer(name)((fan_in, fan_out), np.random.default_rng(0))
    assert w.shape == (fan_in, fan_out)
    assert abs(w.mean()) < 0.01
    assert w.var() == pytest.approx(variance(fan_in, fan_out), rel=0.05)
    if limit is not None:
        assert np.abs(w).max() <= limit(fan_in, fan_out)


def test_get_initializer_resolves_names_and_passes_callables():
    def sevens(shape, rng=None):
        return np.full(shape, 7.0)

    assert get_initializer("He_Normal") is get_initializer("he_normal")
    assert get_initializer(sevens) is sevens
    np.testing.assert_array_equal(get_initializer("ones")((2, 3)), np.ones((2, 3)))
    with pytest.raises(KeyError):
        get_initializer("lecun_magic")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_accuracy_from_logits_and_classes(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0]])
        labels = np.array([0, 1])
        assert accuracy(logits, labels) == 1.0
        assert accuracy(np.array([0, 0]), labels) == 0.5

    def test_agreement(self, rng):
        a = rng.normal(size=(10, 3))
        assert agreement(a, a) == 1.0


# ---------------------------------------------------------------------------
# Sequential model behaviour
# ---------------------------------------------------------------------------

class TestSequential:
    def test_training_reduces_loss_and_reaches_high_accuracy(self, blobs):
        train, test = blobs
        model = make_mlp(12, 4, hidden=(32, 16), seed=1)
        history = model.fit(train.x, train.y, epochs=8, lr=0.01, seed=1)
        assert history["loss"][-1] < history["loss"][0]
        assert model.evaluate(test.x, test.y)["accuracy"] > 0.9

    def test_flat_weights_roundtrip(self, trained_mlp):
        flat = trained_mlp.get_flat_weights()
        clone = trained_mlp.clone(copy_weights=False)
        clone.set_flat_weights(flat)
        np.testing.assert_allclose(clone.get_flat_weights(), flat)

    def test_flat_weights_wrong_size(self, trained_mlp):
        with pytest.raises(ValueError):
            trained_mlp.set_flat_weights(np.zeros(3))

    def test_train_step_lowers_the_batch_loss(self, blobs):
        train, _ = blobs
        model = make_mlp(12, 4, hidden=(16,), seed=2)
        xb, yb = train.x[:32], train.y[:32]
        optimizer = get_optimizer("sgd", lr=0.05)
        losses = [model.train_step(xb, yb, softmax_cross_entropy, optimizer) for _ in range(20)]
        assert all(np.isfinite(losses)) and losses[-1] < 0.8 * losses[0]

    def test_batch_iterator_covers_each_row_once(self):
        x = np.arange(23, dtype=np.float64)[:, None]
        y = np.arange(23)
        batches = list(batch_iterator(x, y, 5, rng=np.random.default_rng(0)))
        assert [len(xb) for xb, _ in batches] == [5, 5, 5, 5, 3]
        seen = np.concatenate([yb for _, yb in batches])
        assert sorted(seen.tolist()) == list(range(23)) and seen.tolist() != list(range(23))
        assert all(np.array_equal(xb[:, 0], yb) for xb, yb in batches)
        in_order = list(batch_iterator(x, None, 10))
        assert [xb[0, 0] for xb, _ in in_order] == [0.0, 10.0, 20.0] and in_order[0][1] is None

    def test_serialization_roundtrip(self, trained_mlp, blobs):
        _, test = blobs
        blob = trained_mlp.to_bytes()
        restored = Sequential.from_bytes(blob)
        np.testing.assert_allclose(restored.forward(test.x[:16]), trained_mlp.forward(test.x[:16]))

    def test_clone_without_weights_differs(self, trained_mlp):
        fresh = trained_mlp.clone(copy_weights=False)
        assert not np.allclose(fresh.get_flat_weights(), trained_mlp.get_flat_weights())
        assert fresh.num_params() == trained_mlp.num_params()

    def test_clone_is_independent(self, trained_mlp):
        clone = trained_mlp.clone(copy_weights=True)
        clone.layers[0].params["W"] += 1.0
        assert not np.allclose(clone.get_flat_weights(), trained_mlp.get_flat_weights())

    def test_predict_classes_and_proba(self, trained_mlp, blobs):
        _, test = blobs
        proba = trained_mlp.predict_proba(test.x[:10])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        classes = trained_mlp.predict_classes(test.x[:10])
        np.testing.assert_array_equal(classes, proba.argmax(axis=1))

    def test_validation_history(self, blobs):
        train, test = blobs
        model = make_mlp(12, 4, hidden=(16,), seed=2)
        history = model.fit(train.x, train.y, epochs=2, validation_data=(test.x, test.y))
        assert len(history["val_accuracy"]) == 2

    def test_summary_mentions_all_layers(self, trained_mlp):
        text = trained_mlp.summary()
        assert "total params" in text
        assert str(trained_mlp.num_params()) in text

    def test_callbacks_invoked(self, blobs):
        train, _ = blobs
        model = make_mlp(12, 4, hidden=(8,), seed=3)
        seen = []
        model.fit(train.x[:64], train.y[:64], epochs=3, callbacks=[lambda e, m: seen.append(e)])
        assert seen == [0, 1, 2]


# ---------------------------------------------------------------------------
# model zoo
# ---------------------------------------------------------------------------

class TestZoo:
    def test_cnn_shapes(self, digits):
        train, _ = digits
        model = make_tiny_cnn((12, 12, 1), 10, filters=(4, 8), seed=0)
        out = model.forward(train.x[:4])
        assert out.shape == (4, 10)

    def test_depthwise_cnn_width_multiplier(self):
        small = make_depthwise_cnn((16, 16, 1), 4, width_multiplier=0.5, seed=0)
        large = make_depthwise_cnn((16, 16, 1), 4, width_multiplier=2.0, seed=0)
        assert large.num_params() > small.num_params()

    def test_autoencoder_reconstruction_shape(self, rng):
        ae = make_autoencoder(24, bottleneck=4, seed=0)
        x = rng.normal(size=(5, 24))
        assert ae.forward(x).shape == (5, 24)

    def test_multi_fidelity_family_ordering(self):
        family = make_multi_fidelity_family(16, 4, seed=0)
        sizes = [m.num_params() for m in family.values()]
        assert sizes == sorted(sizes)
        assert len(family) == 4

    def test_activation_registry_unknown(self):
        with pytest.raises(KeyError):
            get_activation("swishish")
