"""Network unit tests: init, forward, loss, backprop, Adam, serialization.

The heavyweight oracles (20-instance gradient sweep, end-to-end
determinism) live in test_acceptance.py; these are the per-operation
checks and edge cases.
"""

import json
import math

import numpy as np
import pytest

from sarcnet.errors import DataError, TrainingDivergence
from sarcnet.network import (
    Gradients,
    MlpConfig,
    MlpModel,
    adam_step,
    backward,
    cross_entropy,
    dropout_mask,
    forward,
    init_adam_state,
    init_model,
    load_model,
    predict,
    relu,
    save_model,
    softmax,
)


def reference_example(model, x, y, rng=None):
    """The per-example network math the batched code replaced, kept as a reference.

    Returns (gradients, dropout masks, loss) for one input; with a
    generator it runs in train mode, drawing one mask per hidden layer.
    """
    a = x
    zs, activations, masks = [], [], []
    last = model.n_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = w @ a + b
        zs.append(z)
        if l == last:
            e = np.exp(z - np.max(z))
            a = e / e.sum()
        else:
            a = np.maximum(z, 0.0)
            if rng is not None:
                keep = model.config.keep_prob
                mask = (rng.random(a.shape[0]) < keep).astype(float) / keep
                masks.append(mask)
                a = a * mask
        activations.append(a)
    delta = activations[-1].copy()
    delta[y] -= 1.0
    grad_w = [None] * len(zs)
    grad_b = [None] * len(zs)
    for l in range(last, -1, -1):
        a_prev = x if l == 0 else activations[l - 1]
        grad_w[l] = np.outer(delta, a_prev)
        grad_b[l] = delta.copy()
        if l > 0:
            delta = model.weights[l].T @ delta
            if rng is not None:
                delta = delta * masks[l - 1]
            delta = delta * (zs[l - 1] > 0)
    loss = -math.log(max(float(activations[-1][y]), 1e-12))
    return Gradients(tuple(grad_w), tuple(grad_b)), masks, loss


def zero_model(hidden=(7,), keep_prob=1.0):
    base = init_model(MlpConfig(hidden=hidden, keep_prob=keep_prob, seed=0))
    return MlpModel(base.config,
                    tuple(np.zeros_like(w) for w in base.weights),
                    tuple(np.zeros_like(b) for b in base.biases))


class TestConfig:
    def test_width_out_of_range(self):
        with pytest.raises(ValueError, match=r"width 20 outside 7\.\.15"):
            MlpConfig(hidden=(20,))
        with pytest.raises(ValueError, match=r"width 6 outside 7\.\.15"):
            MlpConfig(hidden=(6,))

    def test_layer_count_bounds(self):
        with pytest.raises(ValueError, match="1 or 2 layers"):
            MlpConfig(hidden=())
        with pytest.raises(ValueError, match="1 or 2 layers"):
            MlpConfig(hidden=(10, 10, 10))

    def test_keep_prob_bounds(self):
        with pytest.raises(ValueError, match="keep_prob"):
            MlpConfig(hidden=(9,), keep_prob=0.0)
        with pytest.raises(ValueError, match="keep_prob"):
            MlpConfig(hidden=(9,), keep_prob=1.25)

    def test_boundary_widths_accepted(self):
        assert MlpConfig(hidden=(7, 15)).layer_dims == (15, 7, 15, 2)


class TestInit:
    def test_shapes_for_two_hidden_layers(self):
        model = init_model(MlpConfig(hidden=(15, 15), seed=7))
        assert [w.shape for w in model.weights] == [(15, 15), (15, 15), (2, 15)]
        assert [b.shape for b in model.biases] == [(15,), (15,), (2,)]

    def test_deterministic_per_seed(self):
        a = init_model(MlpConfig(hidden=(15, 15), seed=7))
        b = init_model(MlpConfig(hidden=(15, 15), seed=7))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_seed_changes_weights(self):
        a = init_model(MlpConfig(hidden=(9,), seed=1))
        b = init_model(MlpConfig(hidden=(9,), seed=2))
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_biases_zero_and_weights_bounded(self):
        model = init_model(MlpConfig(hidden=(10, 12), seed=3))
        dims = model.config.layer_dims
        for (fan_in, fan_out), w, b in zip(zip(dims, dims[1:]),
                                           model.weights, model.biases):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)
            assert np.all(b == 0.0)


class TestForward:
    def test_zero_model_gives_uniform_probabilities(self):
        trace = forward(zero_model(), np.ones(15))
        assert trace.p == pytest.approx([0.5, 0.5])

    def test_softmax_stability_large_logits(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_softmax_normalization_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            z = rng.uniform(-1e6, 1e6, size=2)
            p = softmax(z)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            forward(zero_model(), np.ones(14))

    def test_train_mode_requires_rng(self):
        with pytest.raises(ValueError, match="requires a random generator"):
            forward(zero_model(), np.ones(15), mode="train")

    def test_keep_prob_one_train_equals_infer(self):
        model = init_model(MlpConfig(hidden=(11, 9), keep_prob=1.0, seed=5))
        x = np.random.default_rng(0).random(15)
        train_trace = forward(model, x, mode="train", rng=np.random.default_rng(1))
        infer_trace = forward(model, x, mode="infer")
        assert np.array_equal(train_trace.p, infer_trace.p)
        for a, b in zip(train_trace.activations, infer_trace.activations):
            assert np.array_equal(a, b)

    def test_relu(self):
        assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


class TestDropout:
    def test_mask_values(self):
        rng = np.random.default_rng(0)
        mask = dropout_mask(rng, 1000, 0.75)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}

    def test_infer_mode_applies_no_mask(self):
        model = init_model(MlpConfig(hidden=(9,), keep_prob=0.5, seed=2))
        x = np.full(15, 0.3)
        a = forward(model, x, mode="infer")
        b = forward(model, x, mode="infer")
        assert np.array_equal(a.p, b.p)
        assert a.masks == ()


class TestCrossEntropy:
    def test_uniform(self):
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2))

    def test_perfect(self):
        assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0

    def test_clamped_worst_case(self):
        loss = cross_entropy(np.array([1.0, 0.0]), 1)
        assert loss == pytest.approx(-math.log(1e-12))


class TestBackward:
    def test_output_delta_at_symmetric_start(self):
        model = zero_model(hidden=(7,))
        trace = forward(model, np.ones(15))
        grads = backward(model, trace, y=1)
        assert grads.biases[-1] == pytest.approx([0.5, -0.5])

    def test_zero_input_zeroes_first_layer_weight_grads(self):
        model = init_model(MlpConfig(hidden=(8,), seed=4))
        trace = forward(model, np.zeros(15))
        grads = backward(model, trace, y=0)
        assert np.all(grads.weights[0] == 0.0)

    def test_depth_mismatch_rejected(self):
        deep = init_model(MlpConfig(hidden=(9, 9), seed=0))
        shallow = init_model(MlpConfig(hidden=(9,), seed=0))
        trace = forward(deep, np.ones(15))
        with pytest.raises(ValueError, match="depth"):
            backward(shallow, trace, y=0)

    def test_train_mode_gradient_matches_frozen_mask_oracle(self):
        # Finite differences on a forward pass that replays the recorded
        # masks; verifies the dropout gating inside backward.
        rng = np.random.default_rng(12)
        model = init_model(MlpConfig(hidden=(9, 8), keep_prob=0.6, seed=6))
        x = rng.random(15)
        y = 1
        trace = forward(model, x, mode="train", rng=np.random.default_rng(99))

        def frozen_loss(weights, biases):
            a = x
            for l, (w, b) in enumerate(zip(weights, biases)):
                z = w @ a + b
                if l == len(weights) - 1:
                    a = softmax(z)
                else:
                    a = np.maximum(z, 0.0) * trace.masks[l]
            return cross_entropy(a, y)

        grads = backward(model, trace, y)
        h = 1e-5
        for l in range(len(model.weights)):
            numeric = np.zeros_like(model.weights[l])
            for i in range(numeric.shape[0]):
                for j in range(numeric.shape[1]):
                    plus = [w.copy() for w in model.weights]
                    minus = [w.copy() for w in model.weights]
                    plus[l][i, j] += h
                    minus[l][i, j] -= h
                    numeric[i, j] = (frozen_loss(plus, model.biases)
                                     - frozen_loss(minus, model.biases)) / (2 * h)
            denom = max(1e-12, np.linalg.norm(grads.weights[l]) + np.linalg.norm(numeric))
            assert np.linalg.norm(grads.weights[l] - numeric) / denom < 1e-4


class TestBatchParity:
    """Batched forward/backward against the per-example reference."""

    @pytest.mark.parametrize("hidden", [(9,), (12, 10)])
    @pytest.mark.parametrize("batch", [1, 7, 100])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_batch_gradients_are_summed_example_gradients(self, hidden, batch, mode):
        model = init_model(MlpConfig(hidden=hidden, keep_prob=0.75, seed=batch))
        data = np.random.default_rng(batch + 100)
        xs = data.uniform(-1.0, 1.0, size=(batch, 15))
        ys = data.integers(0, 2, size=batch)
        ref_rng = np.random.default_rng(5) if mode == "train" else None
        rng = np.random.default_rng(5) if mode == "train" else None

        per_example = [reference_example(model, x, int(y), ref_rng)
                       for x, y in zip(xs, ys)]
        trace = forward(model, xs, mode=mode, rng=rng)
        grads = backward(model, trace, ys)

        for l in range(model.n_layers):
            expected_w = sum(g.weights[l] for g, _, _ in per_example)
            expected_b = sum(g.biases[l] for g, _, _ in per_example)
            assert np.allclose(grads.weights[l], expected_w, rtol=0, atol=1e-12)
            assert np.allclose(grads.biases[l], expected_b, rtol=0, atol=1e-12)
        for l in range(len(trace.masks)):
            assert np.array_equal(trace.masks[l],
                                  np.stack([masks[l] for _, masks, _ in per_example]))
        expected_loss = sum(loss for _, _, loss in per_example)
        assert cross_entropy(trace.p, ys) == pytest.approx(expected_loss,
                                                           rel=0, abs=1e-12)

    def test_single_vector_is_a_batch_of_one(self):
        model = init_model(MlpConfig(hidden=(11, 9), keep_prob=0.5, seed=3))
        x = np.random.default_rng(2).random(15)
        single = forward(model, x, mode="train", rng=np.random.default_rng(8))
        batch = forward(model, x[None, :], mode="train", rng=np.random.default_rng(8))
        assert single.x.shape == (15,) and single.p.shape == (2,)
        for ts, tb in ((single.zs, batch.zs), (single.activations, batch.activations),
                       (single.masks, batch.masks)):
            for a, b in zip(ts, tb):
                assert a.ndim == 1 and np.array_equal(a, b[0])
        grads_single = backward(model, single, 1)
        grads_batch = backward(model, batch, np.array([1]))
        for a, b in zip(grads_single.weights + grads_single.biases,
                        grads_batch.weights + grads_batch.biases):
            assert np.array_equal(a, b)

    def test_class_count_must_match_rows(self):
        model = init_model(MlpConfig(hidden=(9,), seed=0))
        trace = forward(model, np.ones((3, 15)))
        with pytest.raises(ValueError, match="one class per probability row"):
            backward(model, trace, 1)
        with pytest.raises(ValueError, match="one class per probability row"):
            backward(model, trace, np.array([0, 1]))
        with pytest.raises(ValueError, match="class must be 0 or 1"):
            backward(model, trace, np.array([0, 1, 2]))

    def test_batch_rank_checked(self):
        with pytest.raises(ValueError, match="shape"):
            forward(zero_model(), np.ones((2, 3, 15)))


class TestAdam:
    def test_first_step_closed_form(self):
        model = zero_model(hidden=(7,))
        grads = Gradients(tuple(np.ones_like(w) for w in model.weights),
                          tuple(np.ones_like(b) for b in model.biases))
        stepped, state = adam_step(model, grads, init_adam_state(model), lr=0.01)
        m_hat = (0.1 * 1.0) / (1.0 - 0.9)
        v_hat = (0.001 * 1.0) / (1.0 - 0.999)
        expected = -0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert stepped.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        assert abs(stepped.weights[0][0, 0] + 0.01) < 1e-9
        assert state.t == 1

    def test_zero_gradient_leaves_parameters_bit_identical(self):
        model = init_model(MlpConfig(hidden=(9,), seed=1))
        state = init_adam_state(model)
        grads = Gradients(tuple(np.zeros_like(w) for w in model.weights),
                          tuple(np.zeros_like(b) for b in model.biases))
        stepped, state = adam_step(model, grads, state, lr=0.01)
        stepped, state = adam_step(stepped, grads, state, lr=0.01)
        for a, b in zip(stepped.weights, model.weights):
            assert np.array_equal(a, b)
        assert state.t == 2

    def test_inputs_not_mutated(self):
        model = init_model(MlpConfig(hidden=(9,), seed=1))
        snapshot = [w.copy() for w in model.weights]
        grads = Gradients(tuple(np.ones_like(w) for w in model.weights),
                          tuple(np.ones_like(b) for b in model.biases))
        adam_step(model, grads, init_adam_state(model), lr=0.1)
        for w, s in zip(model.weights, snapshot):
            assert np.array_equal(w, s)

    def test_non_finite_gradient_names_parameter(self):
        model = init_model(MlpConfig(hidden=(9,), seed=1))
        bad_w = [np.ones_like(w) for w in model.weights]
        bad_w[1][0, 0] = np.nan
        grads = Gradients(tuple(bad_w), tuple(np.ones_like(b) for b in model.biases))
        with pytest.raises(TrainingDivergence, match="W2"):
            adam_step(model, grads, init_adam_state(model), lr=0.01)

        bad_b = [np.ones_like(b) for b in model.biases]
        bad_b[0][0] = np.inf
        grads = Gradients(tuple(np.ones_like(w) for w in model.weights), tuple(bad_b))
        with pytest.raises(TrainingDivergence, match="b1"):
            adam_step(model, grads, init_adam_state(model), lr=0.01)

    def test_determinism(self):
        model = init_model(MlpConfig(hidden=(10,), seed=3))
        grads = Gradients(tuple(np.full_like(w, 0.25) for w in model.weights),
                          tuple(np.full_like(b, -0.5) for b in model.biases))
        a, _ = adam_step(model, grads, init_adam_state(model), lr=0.02)
        b, _ = adam_step(model, grads, init_adam_state(model), lr=0.02)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)


class TestPredict:
    def test_argmax_and_confidence(self):
        model = zero_model(hidden=(7,))
        biased = MlpModel(model.config, model.weights,
                          (model.biases[0], np.array([0.0, 2.0])))
        cls, confidence = predict(biased, np.zeros(15))
        assert cls == 1
        assert confidence == pytest.approx(1 / (1 + math.exp(-2)))

    def test_tie_breaks_to_non_sarcastic(self):
        cls, confidence = predict(zero_model(), np.ones(15))
        assert (cls, confidence) == (0, 0.5)


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        model = init_model(MlpConfig(hidden=(13, 8), keep_prob=0.75, seed=11))
        path = tmp_path / "m.json"
        save_model(path, model, provenance={"seed": 11})
        loaded = load_model(path)
        assert loaded.config == model.config
        for a, b in zip(loaded.weights, model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, model.biases):
            assert np.array_equal(a, b)

    def test_round_trip_predictions_match(self, tmp_path):
        model = init_model(MlpConfig(hidden=(15, 15), seed=2))
        path = tmp_path / "m.json"
        save_model(path, model)
        loaded = load_model(path)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.random(15)
            assert predict(loaded, x) == predict(model, x)

    def test_rejects_wrong_version(self, tmp_path):
        model = init_model(MlpConfig(hidden=(9,), seed=0))
        path = tmp_path / "m.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_rejects_missing_format_marker(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(DataError, match="format"):
            load_model(path)

    def test_rejects_shape_tampering(self, tmp_path):
        model = init_model(MlpConfig(hidden=(9,), seed=0))
        path = tmp_path / "m.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        doc["layers"][0]["shape"] = [8, 15]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="shape"):
            load_model(path)

    def test_rejects_non_finite_parameters(self, tmp_path):
        model = init_model(MlpConfig(hidden=(9,), seed=0))
        path = tmp_path / "m.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        doc["layers"][0]["weights"][0] = float("inf").hex()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{truncated")
        with pytest.raises(DataError, match="JSON"):
            load_model(path)
