"""Network unit tests: init, forward, loss, backprop, Adam, serialization.

The heavyweight oracles (20-instance gradient sweep, end-to-end
determinism) live in test_acceptance.py; these are the per-operation
checks and edge cases.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_layers import from_layers

from sarcnet.errors import DataError, TrainingDivergence
from sarcnet.network import (
    PARAM_LIMIT,
    ForwardTrace,
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
    predict_batch,
    predicted_classes,
    save_model,
    softmax,
    zero_gradients,
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
    return from_layers(model.config, grad_w, grad_b), masks, loss


def zero_model(hidden=(7,), keep_prob=1.0):
    base = init_model(MlpConfig(hidden=hidden, keep_prob=keep_prob, seed=0))
    return from_layers(base.config,
                       [np.zeros_like(w) for w in base.weights],
                       [np.zeros_like(b) for b in base.biases])


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

    @pytest.mark.parametrize("seed", [True, 2.5, "1"])
    def test_seed_must_be_an_integer(self, seed):
        # Else save_model would write a model that load_model rejects.
        with pytest.raises(ValueError, match="seed must be an integer"):
            MlpConfig(hidden=(9,), seed=seed)

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
        trace = forward(zero_model(), np.ones(15)[None])
        assert trace.p[0] == pytest.approx([0.5, 0.5])

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

    def test_softmax_row_sum_has_the_bits_of_np_sum(self):
        """The two-column sum is np.sum's, NaN payloads and signed zeros included."""
        specials = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.5, -745.0, 1e308]
        rows = np.array([[a, b] for a in specials for b in specials])
        rng = np.random.default_rng(11)
        batch = np.concatenate([rows, rng.normal(0.0, 30.0, size=(36, 2))])
        stacked = np.stack([batch, batch[::-1], rng.permutation(batch)])
        for z in (batch, stacked, rows[17], rng.normal(size=2)):
            with np.errstate(invalid="ignore"):  # inf - inf and the NaN rows
                e = np.exp(z - np.maximum(z[..., 0], z[..., 1])[..., None])
                expected = e / e.sum(axis=-1, keepdims=True)
                got = softmax(z)
            assert got.shape == z.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_softmax_of_other_widths(self, width):
        z = np.random.default_rng(width).normal(0.0, 30.0, size=(4, 5, width))
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(softmax(z), e / e.sum(axis=-1, keepdims=True), rtol=1e-15)
        np.testing.assert_allclose(softmax(z).sum(axis=-1), 1.0, rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            forward(zero_model(), np.ones(14))

    def test_keep_prob_one_train_equals_infer(self):
        model = init_model(MlpConfig(hidden=(11, 9), keep_prob=1.0, seed=5))
        x = np.random.default_rng(0).random(15)
        train_trace = forward(model, x[None], rng=np.random.default_rng(1))
        infer_trace = forward(model, x[None])
        assert np.array_equal(train_trace.p, infer_trace.p)
        for a, b in zip(train_trace.activations, infer_trace.activations):
            assert np.array_equal(a, b)


class TestDropout:
    def test_mask_values(self):
        rng = np.random.default_rng(0)
        mask = dropout_mask(rng, 1000, 0.75)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}

    @pytest.mark.parametrize("keep_prob", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_mask_bits_equal_the_float_copy_of_the_draws(self, keep_prob):
        """The boolean draws divide to float64 with the bits of their float copy."""
        mask = dropout_mask(np.random.default_rng(7), 3000, keep_prob)
        copied = (np.random.default_rng(7).random(3000) < keep_prob).astype(float) / keep_prob
        assert mask.dtype == np.float64
        assert mask.tobytes() == copied.tobytes()
        stacked = dropout_mask([np.random.default_rng(7), np.random.default_rng(8)], 3000,
                               keep_prob)
        assert stacked[0].tobytes() == mask.tobytes()
        assert stacked[1].tobytes() == dropout_mask(np.random.default_rng(8), 3000,
                                                    keep_prob).tobytes()

    def test_infer_mode_applies_no_mask(self):
        model = init_model(MlpConfig(hidden=(9,), keep_prob=0.5, seed=2))
        x = np.full(15, 0.3)
        a = forward(model, x[None])
        b = forward(model, x[None])
        assert np.array_equal(a.p, b.p)
        assert a.masks == ()


class TestCrossEntropy:
    def test_uniform(self):
        assert cross_entropy(np.array([0.5, 0.5])[None], [1]) == pytest.approx(math.log(2))

    def test_perfect(self):
        assert cross_entropy(np.array([0.0, 1.0])[None], [1]) == 0.0

    def test_clamped_worst_case(self):
        loss = cross_entropy(np.array([1.0, 0.0])[None], [1])
        assert loss == pytest.approx(-math.log(1e-12))


class TestBackward:
    def test_output_delta_at_symmetric_start(self):
        model = zero_model(hidden=(7,))
        trace = forward(model, np.ones(15)[None])
        grads = backward(model, trace, y=[1])
        assert grads.biases[-1] == pytest.approx([0.5, -0.5])

    def test_zero_input_zeroes_first_layer_weight_grads(self):
        model = init_model(MlpConfig(hidden=(8,), seed=4))
        trace = forward(model, np.zeros(15)[None])
        grads = backward(model, trace, y=[0])
        assert np.all(grads.weights[0] == 0.0)

    def test_depth_mismatch_rejected(self):
        deep = init_model(MlpConfig(hidden=(9, 9), seed=0))
        shallow = init_model(MlpConfig(hidden=(9,), seed=0))
        trace = forward(deep, np.ones(15)[None])
        with pytest.raises(ValueError, match="depth"):
            backward(shallow, trace, y=[0])

    def test_train_mode_gradient_matches_frozen_mask_oracle(self):
        # Finite differences on a forward pass that replays the recorded
        # masks; verifies the dropout gating inside backward.
        rng = np.random.default_rng(12)
        model = init_model(MlpConfig(hidden=(9, 8), keep_prob=0.6, seed=6))
        x = rng.random(15)
        y = 1
        trace = forward(model, x[None], rng=np.random.default_rng(99))

        def frozen_loss(weights, biases):
            a = x
            for l, (w, b) in enumerate(zip(weights, biases)):
                z = w @ a + b
                if l == len(weights) - 1:
                    a = softmax(z)
                else:
                    a = np.maximum(z, 0.0) * trace.masks[l][0]
            return cross_entropy(a[None], [y])

        grads = backward(model, trace, [y])
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

    @settings(max_examples=150)
    @given(hidden=st.sampled_from([(9,), (8, 7)]),
           keep_prob=st.sampled_from([0.5, 0.75, 1.0]),
           seed=st.none() | st.integers(0, 2 ** 32 - 1),
           rows=st.integers(1, 5),
           dead=st.sets(st.integers(0, 6), max_size=3),
           data=st.data())
    def test_gradients_match_the_pre_activation_gate_bit_for_bit(
            self, hidden, keep_prob, seed, rows, dead, data):
        # backward gates each hidden layer's ReLU on its post-dropout
        # activation; this reference recomputes the pre-activation z from
        # the trace, as forward computes it, and gates on z > 0 instead.
        # tobytes() makes the signed zeros of dropped units count.
        model = init_model(MlpConfig(hidden=hidden, keep_prob=keep_prob, seed=3))
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            for unit in dead:  # units whose pre-activation is exactly zero
                w[unit] = 0.0
                b[unit] = data.draw(st.sampled_from([0.0, -0.0]))
        values = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
        x = np.array(data.draw(st.lists(values, min_size=15 * rows,
                                        max_size=15 * rows))).reshape(rows, 15)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
        trace = forward(model, x, rng=None if seed is None else np.random.default_rng(seed))

        expected = np.empty_like(model.params)
        views = MlpModel(model.config, expected)
        delta = trace.p.copy()
        delta[np.arange(rows), y] -= 1.0
        for l in range(model.n_layers - 1, -1, -1):
            a_prev = trace.x if l == 0 else trace.activations[l - 1]
            np.matmul(delta.T, a_prev, out=views.weights[l])
            delta.sum(axis=0, out=views.biases[l])
            if l > 0:
                below = trace.x if l == 1 else trace.activations[l - 2]
                z = below @ model.weights[l - 1].T + model.biases[l - 1]
                delta = delta @ model.weights[l]
                if trace.masks:
                    delta = delta * trace.masks[l - 1]
                delta = delta * (z > 0)
        assert backward(model, trace, y).params.tobytes() == expected.tobytes()


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
        trace = forward(model, xs, rng=rng)
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

    @pytest.mark.parametrize("shape", [(15,), (1, 14), (15, 1), ()])
    def test_forward_refuses_every_shape_but_a_batch(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected input shape (B, 15), got {shape}")):
            forward(zero_model(), np.ones(shape))

    @pytest.mark.parametrize("shape", [(2, 15), (15,), (2, 1, 3, 15), (2, 3, 14)])
    def test_a_stack_refuses_every_shape_but_a_stacked_batch(self, shape):
        model = zero_model()
        stack = MlpModel(model.config, np.stack([model.params, model.params]))
        with pytest.raises(ValueError, match=re.escape(
                f"expected input shape (S, B, 15), got {shape}")):
            forward(stack, np.ones(shape))

    def test_an_int_class_is_refused(self):
        model = zero_model()
        trace = forward(model, np.ones((1, 15)))
        # The one-vector trace forward used to give, rows stripped of the batch axis.
        single = ForwardTrace(trace.x[0], tuple(a[0] for a in trace.activations), (),
                              trace.p[0])
        for t in (trace, single):
            with pytest.raises(ValueError, match="one class per probability row"):
                backward(model, t, 1)
        for p in (np.array([0.5, 0.5]), np.array([[0.5, 0.5]])):
            with pytest.raises(ValueError, match="one class per probability row"):
                cross_entropy(p, 1)


class TestAdam:
    def test_first_step_closed_form(self):
        model = zero_model(hidden=(7,))
        grads = from_layers(model.config, [np.ones_like(w) for w in model.weights],
                            [np.ones_like(b) for b in model.biases])
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
        grads = from_layers(model.config, [np.zeros_like(w) for w in model.weights],
                            [np.zeros_like(b) for b in model.biases])
        stepped, state = adam_step(model, grads, state, lr=0.01)
        stepped, state = adam_step(stepped, grads, state, lr=0.01)
        for a, b in zip(stepped.weights, model.weights):
            assert np.array_equal(a, b)
        assert state.t == 2

    def test_inputs_not_mutated(self):
        model = init_model(MlpConfig(hidden=(9,), seed=1))
        snapshot = [w.copy() for w in model.weights]
        grads = from_layers(model.config, [np.ones_like(w) for w in model.weights],
                            [np.ones_like(b) for b in model.biases])
        adam_step(model, grads, init_adam_state(model), lr=0.1)
        for w, s in zip(model.weights, snapshot):
            assert np.array_equal(w, s)

    def test_non_finite_gradient_names_parameter(self):
        model = init_model(MlpConfig(hidden=(9,), seed=1))
        bad_w = [np.ones_like(w) for w in model.weights]
        bad_w[1][0, 0] = np.nan
        grads = from_layers(model.config, bad_w, [np.ones_like(b) for b in model.biases])
        with pytest.raises(TrainingDivergence, match="W2"):
            adam_step(model, grads, init_adam_state(model), lr=0.01)

        bad_b = [np.ones_like(b) for b in model.biases]
        bad_b[0][0] = np.inf
        grads = from_layers(model.config, [np.ones_like(w) for w in model.weights], bad_b)
        with pytest.raises(TrainingDivergence, match="b1"):
            adam_step(model, grads, init_adam_state(model), lr=0.01)

    def test_determinism(self):
        model = init_model(MlpConfig(hidden=(10,), seed=3))
        grads = from_layers(model.config, [np.full_like(w, 0.25) for w in model.weights],
                            [np.full_like(b, -0.5) for b in model.biases])
        a, _ = adam_step(model, grads, init_adam_state(model), lr=0.02)
        b, _ = adam_step(model, grads, init_adam_state(model), lr=0.02)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)


class TestFlatParameters:
    """One float64 vector per model, gradient and Adam moment."""

    def test_params_is_one_contiguous_vector(self, tmp_path):
        model = init_model(MlpConfig(hidden=(15, 15), seed=1))
        dims = model.config.layer_dims
        size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims, dims[1:]))
        assert size == model.config.n_params == 512
        save_model(tmp_path / "m.json", model, {})
        trace = forward(model, np.ones((3, 15)))
        grads = backward(model, trace, np.array([0, 1, 1]))
        state = init_adam_state(model)
        stepped, state = adam_step(model, grads, state, lr=0.01)
        for vector in (model.params, load_model(tmp_path / "m.json").params, grads.params,
                       stepped.params, state.m, state.v):
            assert vector.shape == (512,)
            assert vector.dtype == np.float64 and vector.flags.c_contiguous

    def test_layout_is_w1_b1_w2_b2(self):
        model = init_model(MlpConfig(hidden=(9,), seed=2))
        w1, w2 = model.weights
        b1, b2 = model.biases
        assert np.array_equal(model.params, np.concatenate(
            [w1.ravel(), b1, w2.ravel(), b2]))
        for view in model.weights + model.biases:
            assert np.shares_memory(view, model.params)

    def test_views_write_through(self):
        model = init_model(MlpConfig(hidden=(9, 8), seed=3))
        before = model.params.copy()
        model.weights[1][2, 3] += 0.5
        model.biases[2][1] = 7.0
        changed = np.flatnonzero(model.params != before)
        assert len(changed) == 2
        assert model.params[changed[1]] == 7.0

    def test_wrong_length_rejected(self):
        config = MlpConfig(hidden=(9,))
        with pytest.raises(ValueError, match=f"expected {config.n_params} parameters"):
            MlpModel(config, np.zeros(config.n_params + 1))

    def test_adam_step_leaves_input_buffers_untouched(self):
        model = init_model(MlpConfig(hidden=(9, 8), seed=4))
        trace = forward(model, np.full((4, 15), 0.3))
        grads = backward(model, trace, np.array([0, 1, 0, 1]))
        _, state = adam_step(model, grads, init_adam_state(model), lr=0.01)
        inputs = (model.params, grads.params, state.m, state.v)
        snapshot = [a.copy() for a in inputs]
        stepped, new_state = adam_step(model, grads, state, lr=0.01)
        for a, s in zip(inputs, snapshot):
            assert np.array_equal(a, s)
        for new in (stepped.params, new_state.m, new_state.v):
            assert not any(np.shares_memory(new, a) for a in inputs)
        assert state.t == 1 and new_state.t == 2

    @pytest.mark.parametrize("block, name", [("W", "W1"), ("b", "b1"), ("W", "W2"),
                                             ("b", "b2"), ("W", "W3"), ("b", "b3")])
    def test_non_finite_gradient_names_its_block_only(self, block, name):
        model = init_model(MlpConfig(hidden=(9, 8), seed=1))
        grads = zero_gradients(model)
        layer = int(name[1:]) - 1
        (grads.weights if block == "W" else grads.biases)[layer].flat[-1] = np.nan
        assert np.count_nonzero(~np.isfinite(grads.params)) == 1
        with pytest.raises(TrainingDivergence, match=f"non-finite gradient in {name}$"):
            adam_step(model, grads, init_adam_state(model), lr=0.01)


class TestPredict:
    def test_argmax_and_confidence(self):
        model = zero_model(hidden=(7,))
        biased = from_layers(model.config, model.weights,
                             (model.biases[0], np.array([0.0, 2.0])))
        cls, confidence = predict(biased, np.zeros(15))
        assert cls == 1
        assert confidence == pytest.approx(1 / (1 + math.exp(-2)))

    def test_tie_breaks_to_non_sarcastic(self):
        cls, confidence = predict(zero_model(), np.ones(15))
        assert (cls, confidence) == (0, 0.5)

    @pytest.mark.parametrize("shape", [(1, 15), (2, 15), (14,), (15, 1), ()])
    def test_refuses_every_shape_but_one_row(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected input shape (15,), got {shape}")):
            predict(zero_model(), np.zeros(shape))


def forward_prediction(model, x):
    """predict's contract computed by forward: the class and its probability."""
    p = forward(model, x[None]).p[0]
    cls = int(predicted_classes(p))
    return cls, float(p[cls])


def assert_predicts_as_forward(model, rows):
    """predict equals forward_prediction on every row, bit for bit, warning about nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in rows:
            cls, confidence = predict(model, x)
            want_cls, want_confidence = forward_prediction(model, x)
            assert type(confidence) is float
            assert (cls, confidence.hex()) == (want_cls, want_confidence.hex())


UNIT_ROWS = st.lists(
    st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 1.0)),
             min_size=15, max_size=15),
    min_size=1, max_size=20)


class TestPredictMatchesForward:
    """predict's one-row path gives forward's class and probability bit for bit."""

    @pytest.mark.parametrize("hidden", [(7,), (15,), (9, 11), (15, 15)])
    @given(rows=UNIT_ROWS, seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.3, 3.0]))
    def test_random_models_and_rows(self, hidden, rows, seed, scale):
        model = init_model(MlpConfig(hidden=hidden, seed=0))
        model.params[...] = np.random.default_rng(seed).normal(0.0, scale, model.params.shape)
        assert_predicts_as_forward(model, np.array([np.zeros(15), *rows]))

    @pytest.mark.parametrize("hidden", [(7,), (15,), (9, 11), (15, 15)])
    def test_seeded_rows_with_close_logits(self, hidden):
        """Small parameters keep the two logits close, where a last-bit change in
        the exponential reaches the probability. With numpy's AVX-512 exp loop,
        math.exp rounds about 1 in 20 results differently, and the
        probability then moves on about 2% of these rows."""
        model = init_model(MlpConfig(hidden=hidden, seed=0))
        rng = np.random.default_rng(7)
        model.params[...] = rng.normal(0.0, 0.3, model.params.shape)
        rows = rng.random((1000, 15))
        rows[::5] = 0.0
        assert_predicts_as_forward(model, rows)

    @pytest.mark.parametrize("hidden", [(7,), (9, 11)])
    @given(rows=UNIT_ROWS, seed=st.integers(0, 2**32 - 1))
    def test_equal_output_rows_tie_to_class_0(self, hidden, rows, seed):
        model = init_model(MlpConfig(hidden=hidden, seed=0))
        model.params[...] = np.random.default_rng(seed).normal(0.0, 3.0, model.params.shape)
        model.weights[-1][1] = model.weights[-1][0]
        model.biases[-1][1] = model.biases[-1][0]
        rows = np.array([np.zeros(15), *rows])
        assert_predicts_as_forward(model, rows)
        assert all(predict(model, x) == (0, 0.5) for x in rows)

    @pytest.mark.parametrize("output_signs, cls", [((1, -1), 0), ((-1, 1), 1)])
    def test_saturated_logits_give_probability_one(self, output_signs, cls):
        model = init_model(MlpConfig(hidden=(15, 15), seed=0))
        model.params[...] = PARAM_LIMIT
        model.weights[-1][...] *= np.array(output_signs)[:, None]
        rows = np.vstack([np.ones(15), np.random.default_rng(0).random((8, 15))])
        assert set(forward(model, rows).p.ravel()) == {0.0, 1.0}
        assert_predicts_as_forward(model, rows)
        assert all(predict(model, x) == (cls, 1.0) for x in rows)


def assert_batch_predicts_as_rows(model, rows):
    """predict_batch over rows equals predict and forward_prediction on each row,
    bit for bit, warning about nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        classes, confidences = predict_batch(model, rows)
    assert classes.shape == confidences.shape == (len(rows),)
    got = [(c, p.hex()) for c, p in zip(classes.tolist(), confidences.tolist())]
    assert got == [(c, p.hex()) for c, p in (predict(model, x) for x in rows)]
    assert got == [(c, p.hex()) for c, p in (forward_prediction(model, x) for x in rows)]


class TestPredictBatch:
    """predict_batch gives every row the bits of its one-row predict and forward."""

    @pytest.mark.parametrize("hidden", [(7,), (15,), (9, 11), (15, 15)])
    @given(rows=UNIT_ROWS, seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.3, 3.0]))
    def test_random_models_and_rows(self, hidden, rows, seed, scale):
        model = init_model(MlpConfig(hidden=hidden, seed=0))
        model.params[...] = np.random.default_rng(seed).normal(0.0, scale, model.params.shape)
        assert_batch_predicts_as_rows(model, np.array([np.zeros(15), *rows]))

    @pytest.mark.parametrize("hidden", [(7,), (15,), (9, 11), (15, 15)])
    def test_seeded_rows_with_close_logits(self, hidden):
        """forward's one gemm over all 1000 rows may round some of them otherwise
        than their lone runs do; predict_batch may not."""
        model = init_model(MlpConfig(hidden=hidden, seed=0))
        rng = np.random.default_rng(7)
        model.params[...] = rng.normal(0.0, 0.3, model.params.shape)
        rows = rng.random((1000, 15))
        rows[::5] = 0.0
        assert_batch_predicts_as_rows(model, rows)

    @pytest.mark.parametrize("hidden", [(7,), (9, 11)])
    @given(rows=UNIT_ROWS, seed=st.integers(0, 2**32 - 1))
    def test_equal_output_rows_tie_to_class_0(self, hidden, rows, seed):
        model = init_model(MlpConfig(hidden=hidden, seed=0))
        model.params[...] = np.random.default_rng(seed).normal(0.0, 3.0, model.params.shape)
        model.weights[-1][1] = model.weights[-1][0]
        model.biases[-1][1] = model.biases[-1][0]
        rows = np.array([np.zeros(15), *rows])
        assert_batch_predicts_as_rows(model, rows)
        classes, confidences = predict_batch(model, rows)
        assert set(classes.tolist()) == {0} and set(confidences.tolist()) == {0.5}

    @pytest.mark.parametrize("output_signs, cls", [((1, -1), 0), ((-1, 1), 1)])
    def test_saturated_logits_give_probability_one(self, output_signs, cls):
        model = init_model(MlpConfig(hidden=(15, 15), seed=0))
        model.params[...] = PARAM_LIMIT
        model.weights[-1][...] *= np.array(output_signs)[:, None]
        rows = np.vstack([np.ones(15), np.random.default_rng(0).random((8, 15))])
        assert_batch_predicts_as_rows(model, rows)
        classes, confidences = predict_batch(model, rows)
        assert set(classes.tolist()) == {cls} and set(confidences.tolist()) == {1.0}

    def test_an_empty_batch_gives_empty_answers(self):
        classes, confidences = predict_batch(zero_model(), np.zeros((0, 15)))
        assert classes.shape == confidences.shape == (0,)

    @pytest.mark.parametrize("shape", [(15,), (1, 14), (2, 1, 15), ()])
    def test_refuses_every_shape_but_a_batch(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected input shape (B, 15), got {shape}")):
            predict_batch(zero_model(), np.zeros(shape))


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
        save_model(path, model, {})
        loaded = load_model(path)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.random(15)
            assert predict(loaded, x) == predict(model, x)

    def test_rejects_wrong_version(self, tmp_path):
        model = init_model(MlpConfig(hidden=(9,), seed=0))
        path = tmp_path / "m.json"
        save_model(path, model, {})
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
        save_model(path, model, {})
        doc = json.loads(path.read_text())
        doc["layers"][0]["shape"] = [8, 15]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="shape"):
            load_model(path)

    def test_rejects_non_finite_parameters(self, tmp_path):
        model = init_model(MlpConfig(hidden=(9,), seed=0))
        path = tmp_path / "m.json"
        save_model(path, model, {})
        doc = json.loads(path.read_text())
        doc["layers"][0]["weights"][0] = float("inf").hex()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("output_signs", [(1, 1), (1, -1)])
    def test_parameters_at_the_limit_load_and_predict_finite(self, tmp_path, output_signs):
        """The widest network with every parameter at +-PARAM_LIMIT (the largest
        logits there are) predicts finite values; one step beyond is refused."""
        model = init_model(MlpConfig(hidden=(15, 15), seed=0))
        model.params[...] = PARAM_LIMIT
        model.weights[-1][...] *= np.array(output_signs)[:, None]
        path = tmp_path / "m.json"
        save_model(path, model, {})
        loaded = load_model(path)
        xs = np.vstack([np.zeros(15), np.ones(15), np.random.default_rng(0).random((8, 15))])
        assert np.isfinite(forward(loaded, xs).p).all()
        for x in xs:
            assert math.isfinite(predict(loaded, x)[1])
        doc = json.loads(path.read_text())
        doc["layers"][2]["bias"][1] = float(-np.nextafter(PARAM_LIMIT, np.inf)).hex()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"^layer 3 contains non-finite parameters "
                                            r"or ones beyond 1e\+100$"):
            load_model(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{truncated")
        with pytest.raises(DataError, match="JSON"):
            load_model(path)


def _paths(value, prefix=()):
    """Every key or index path into a JSON document, parents before children."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    """The container that holds path's last step, or None if path is gone."""
    for step in path[:-1]:
        try:
            doc = doc[step]
        except (KeyError, IndexError, TypeError):
            return None
    if isinstance(doc, dict) and path[-1] in doc:
        return doc
    if isinstance(doc, list) and isinstance(path[-1], int) and path[-1] < len(doc):
        return doc
    return None


# Values a mutated document may hold in place of a valid one: wrong
# types, non-finite and over-range numbers, and hex strings that do not
# parse, overflow, or parse to NaN or infinity.
JUNK = (st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=4)
        | st.sampled_from(["nan", "inf", "-inf", "0x1p99999", "0x1.8p1", "1" * 15, ""])
        | st.lists(st.integers(-1, 20) | st.text(max_size=2), max_size=3)
        | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(path, init_model(MlpConfig(hidden=(9, 7), seed=3)), {"seed": 3})
    return json.loads(path.read_text())


class TestLoadModelRaisesOnlyDataError:
    """Whatever a model file holds, load_model returns a valid model or raises DataError."""

    @settings(max_examples=300)
    @given(content=st.binary(max_size=64)
           | st.lists(st.sampled_from([b"{", b"}", b"[", b"]", b":", b",", b" ", b"1",
                                       b"NaN", b"1e400", b"null", b"\xff", b'"format"',
                                       b'"sarcnet-model"', b'"version"', b'"layers"']),
                      max_size=16).map(b"".join))
    def test_arbitrary_bytes(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("garbage") / "m.json"
        path.write_bytes(content)
        with pytest.raises(DataError):
            load_model(path)

    @settings(max_examples=400)
    @given(data=st.data())
    def test_mutated_valid_document(self, tmp_path_factory, model_doc, data):
        doc = json.loads(json.dumps(model_doc))
        paths = list(_paths(doc))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            path = data.draw(st.sampled_from(paths), label="path")
            parent = _parent(doc, path)
            if parent is None:
                continue
            if data.draw(st.booleans(), label="drop"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JUNK, label="value")
        path = tmp_path_factory.mktemp("mutated") / "m.json"
        path.write_text(json.dumps(doc))
        try:
            model = load_model(path)
        except DataError:
            return
        dims = model.config.layer_dims
        assert [w.shape for w in model.weights] == list(zip(dims[1:], dims))
        assert [b.shape for b in model.biases] == [(d,) for d in dims[1:]]
        assert all(np.all(np.isfinite(a)) for a in model.weights + model.biases)

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["config"].update(hidden=[float("inf")]), "hidden"),
        (lambda doc: doc["config"].update(hidden="99"), "hidden"),
        (lambda doc: doc["config"].update(seed=2.5), "seed"),
        (lambda doc: doc["config"].update(input_dim=15.0), "input_dim"),
        (lambda doc: doc["config"].update(input_dim=14), "dimensions"),
        (lambda doc: doc["config"].update(output_dim=3), "dimensions"),
        (lambda doc: doc.update(version=True), "version"),
        (lambda doc: doc["config"].update(keep_prob="0.5"), "keep_prob"),
        (lambda doc: doc.update(layers=5), "layers"),
        (lambda doc: doc["layers"][1].update(bias="1" * 7), "hex strings"),
        (lambda doc: doc["layers"][0]["weights"].__setitem__(0, "0x1p99999"), "too large"),
    ])
    def test_named_defects(self, tmp_path, model_doc, mutate, message):
        doc = json.loads(json.dumps(model_doc))
        mutate(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=message):
            load_model(path)
