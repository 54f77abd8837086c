"""Training loop, curriculum stages, metrics, sweeps, and reports."""

import json
import math
import random
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from model_layers import from_layers
from reference_text import LEXICONS

import sarcnet.training as training
from sarcnet.corpus import LabeledReview, Review, make_split
from sarcnet.errors import DataError, TrainingDivergence
from sarcnet.features import FeaturePipeline
from sarcnet.network import (
    MlpConfig,
    MlpModel,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_adam_state,
    init_model,
    predict,
    predicted_classes,
)
from sarcnet.training import (
    ClassMetrics,
    ConfusionMatrix,
    HistoryRecord,
    Main,
    NonSarcasticDominated,
    SarcasticOnly,
    TrainConfig,
    derive_seed,
    evaluate,
    f1_score,
    lr_sweep,
    macro_average,
    prf1,
    render_metrics_table,
    render_sweep_table,
    train,
    train_on_vectors,
    write_history,
    write_report,
)

PIPELINE = FeaturePipeline(LEXICONS)

SARCASTIC_TEXTS = [
    "Wow!! just what we needed...",
    "Haha! you call THIS service??",
    "Oh great, an hour for cold soup?!",
    "God! sooooo impressive!!",
    "Yay!! another broken table...",
]

PLAIN_TEXTS = [
    "The soup was warm and the server was polite.",
    "Decent coffee for the price.",
    "We waited ten minutes and the food arrived.",
    "The patio was clean on a weekday.",
    "Ordered the salad, it was fresh.",
]


def synthetic_pool(n, stars=2, sarcastic_fraction=0.5, seed=0):
    rng = random.Random(seed)
    pool = []
    for i in range(n):
        sarcastic = i < n * sarcastic_fraction
        text = rng.choice(SARCASTIC_TEXTS if sarcastic else PLAIN_TEXTS)
        pool.append(LabeledReview(Review(f"s{i}", stars, text), sarcastic))
    rng.shuffle(pool)
    return pool


def separable_vectors(n_per_class=20, seed=1234):
    """Two clusters in [0,1]^15 with a wide gap on the first coordinates."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n_per_class):
        hot = np.clip(0.8 + 0.1 * rng.standard_normal(15) * 0.2, 0, 1)
        hot[5:] = rng.random(10) * 0.3
        examples.append((hot, 1))
        cold = rng.random(15) * 0.25
        examples.append((cold, 0))
    return examples


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "stage", 1) == derive_seed(42, "stage", 1)

    def test_salts_matter(self):
        seeds = {derive_seed(42), derive_seed(42, "a"), derive_seed(42, "b"),
                 derive_seed(42, "a", 0), derive_seed(43, "a")}
        assert len(seeds) == 5

    def test_fits_in_63_bits(self):
        for salt in range(100):
            assert 0 <= derive_seed(7, salt) < 2 ** 63


class TestStages:
    def test_dominated_class_sizes(self):
        assert NonSarcasticDominated(500, 3.0).class_sizes() == (125, 375)
        assert NonSarcasticDominated(500, 1.0).class_sizes() == (250, 250)
        assert NonSarcasticDominated(10, 4.0).class_sizes() == (2, 8)

    @pytest.mark.parametrize("make, message", [
        (lambda: SarcasticOnly(0), "size must be at least 1, got 0"),
        (lambda: SarcasticOnly(-3), "size must be at least 1, got -3"),
        (lambda: NonSarcasticDominated(0, 3.0), "size must be at least 1, got 0"),
        (lambda: NonSarcasticDominated(10, -1.0), "ratio must be positive and finite, got -1.0"),
        (lambda: NonSarcasticDominated(10, 0.0), "ratio must be positive and finite, got 0.0"),
        (lambda: NonSarcasticDominated(10, math.nan), "finite, got nan"),
        (lambda: NonSarcasticDominated(10, math.inf), "finite, got inf"),
    ])
    def test_rejects_bad_sizes_and_ratios(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_default_stage_order(self):
        names = [s.name for s in TrainConfig().stages]
        assert names == ["sarcastic_only", "non_sarcastic_dominated", "main"]


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0},
        {"lr": -1.0},
        {"lr": math.nan},
        {"lr": math.inf},
        {"lr_grid": (1e-3, math.nan)},
        {"epochs": 0},
        {"batch_size": 0},
        {"stages": ()},
        {"lr_grid": ()},
        {"lr_grid": (1e-2, 1e-3)},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrainLoop:
    def test_batch_count_seven_hundred_gives_seven_steps_per_epoch(self, monkeypatch):
        calls = []
        real = training.adam_step

        def counting(model, grads, state, lr):
            calls.append(lr)
            return real(model, grads, state, lr)

        monkeypatch.setattr(training, "adam_step", counting)
        examples = separable_vectors(350)  # 700 total
        config = TrainConfig(stages=(Main(),), epochs=10, batch_size=100, seed=0)
        train_on_vectors([("main", examples)], config,
                         MlpConfig(hidden=(15, 15), keep_prob=0.75, seed=0))
        assert len(calls) == 70

    def test_trailing_partial_batch_kept(self, monkeypatch):
        calls = []
        real = training.adam_step

        def counting(model, grads, state, lr):
            calls.append(1)
            return real(model, grads, state, lr)

        monkeypatch.setattr(training, "adam_step", counting)
        examples = separable_vectors(20)[:35]
        config = TrainConfig(stages=(Main(),), epochs=2, batch_size=10, seed=0)
        train_on_vectors([("main", examples)], config,
                         MlpConfig(hidden=(7,), seed=0))
        assert len(calls) == 8  # 4 batches (10+10+10+5) times 2 epochs

    def test_bit_identical_reruns(self):
        examples = separable_vectors(20)
        config = TrainConfig(stages=(Main(),), epochs=3, batch_size=10, seed=9)
        mlp = MlpConfig(hidden=(9, 9), keep_prob=0.75, seed=4)
        model_a, history_a = train_on_vectors([("main", examples)], config, mlp)
        model_b, history_b = train_on_vectors([("main", examples)], config, mlp)
        for wa, wb in zip(model_a.weights, model_b.weights):
            assert np.array_equal(wa, wb)
        assert history_a == history_b

    def test_seed_changes_outcome(self):
        examples = separable_vectors(20)
        mlp = MlpConfig(hidden=(9,), keep_prob=0.75, seed=4)
        model_a, _ = train_on_vectors(
            [("main", examples)], TrainConfig(stages=(Main(),), epochs=2,
                                              batch_size=10, seed=1), mlp)
        model_b, _ = train_on_vectors(
            [("main", examples)], TrainConfig(stages=(Main(),), epochs=2,
                                              batch_size=10, seed=2), mlp)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(model_a.weights, model_b.weights))

    def test_history_records_per_stage_epoch(self):
        examples = separable_vectors(10)
        config = TrainConfig(stages=(Main(),), epochs=4, batch_size=5, seed=3)
        _, history = train_on_vectors([("main", examples)], config,
                                      MlpConfig(hidden=(8,), seed=1))
        assert [(h.stage, h.epoch) for h in history] == \
               [("main", e) for e in range(1, 5)]
        for record in history:
            assert math.isfinite(record.mean_loss)
            assert 0.0 <= record.train_accuracy <= 1.0

    def test_batch_size_exceeding_stage_rejected(self):
        examples = separable_vectors(4)
        config = TrainConfig(stages=(Main(),), epochs=1, batch_size=100, seed=0)
        with pytest.raises(DataError, match="batch size 100 exceeds"):
            train_on_vectors([("main", examples)], config,
                             MlpConfig(hidden=(7,), seed=0))

    def test_non_finite_loss_reports_coordinates(self, monkeypatch):
        monkeypatch.setattr(training, "cross_entropy", lambda p, y: float("inf"))
        examples = separable_vectors(10)
        config = TrainConfig(stages=(Main(),), epochs=1, batch_size=5, seed=0)
        with pytest.raises(TrainingDivergence, match="epoch 1, batch 1"):
            train_on_vectors([("main", examples)], config,
                             MlpConfig(hidden=(7,), seed=0))

    def test_huge_finite_inputs_diverge_with_coordinates(self):
        examples = [(np.full(15, 1e308), i % 2) for i in range(10)]
        config = TrainConfig(stages=(Main(),), epochs=1, batch_size=5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergence, match="stage 'main', epoch 1, batch 1"):
                train_on_vectors([("main", examples)], config,
                                 MlpConfig(hidden=(7,), seed=0))

    def test_overflowing_learning_rate_diverges_without_warnings(self):
        examples = separable_vectors(10)
        config = TrainConfig(stages=(Main(),), epochs=3, batch_size=5, lr=1e308, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergence):
                train_on_vectors([("main", examples)], config,
                                 MlpConfig(hidden=(7,), seed=0))

    def test_non_finite_output_after_the_last_step_diverges(self):
        # One batch: no later loss sees the overflowing step, the accuracy pass does.
        examples = separable_vectors(10)
        config = TrainConfig(stages=(Main(),), epochs=1, batch_size=len(examples),
                             lr=1e300, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergence,
                               match=r"^non-finite output in stage 'main', epoch 1$"):
                train_on_vectors([("main", examples)], config,
                                 MlpConfig(hidden=(7,), seed=0))

    def test_accuracy_pass_matches_per_row_predict(self):
        examples = separable_vectors(20)
        config = TrainConfig(stages=(Main(),), epochs=1, batch_size=10, seed=2)
        model, history = train_on_vectors([("main", examples)], config,
                                          MlpConfig(hidden=(9,), seed=5))
        correct = sum(predict(model, x)[0] == y for x, y in examples)
        assert history[-1].train_accuracy == correct / len(examples)

    def test_loss_trend_on_separable_data(self):
        examples = separable_vectors(20)
        config = TrainConfig(stages=(Main(),), epochs=5, batch_size=10, seed=6)
        _, history = train_on_vectors([("main", examples)], config,
                                      MlpConfig(hidden=(15, 15), keep_prob=1.0, seed=0))
        losses = [h.mean_loss for h in history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def reference_train(staged_examples: list, config: TrainConfig, mlp_config: MlpConfig) -> tuple:
    """One network's curriculum, one unstacked call per minibatch: the stacked loop's oracle."""
    model = init_model(mlp_config)
    history = []
    for index, (name, examples) in enumerate(staged_examples):
        stage_seed = derive_seed(config.seed, "stage", index, name)
        xs = np.array([x for x, _ in examples], dtype=float)
        ys = np.array([y for _, y in examples])
        order = list(range(len(examples)))
        random.Random(stage_seed).shuffle(order)
        rng = np.random.default_rng(derive_seed(stage_seed, "dropout"))
        state = init_adam_state(model)
        for epoch in range(1, config.epochs + 1):
            loss_sum = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start:start + config.batch_size]
                trace = forward(model, xs[batch], rng=rng)
                loss_sum += cross_entropy(trace.p, ys[batch])
                grads = backward(model, trace, ys[batch])
                grads.params[...] *= 1.0 / len(batch)
                model, state = adam_step(model, grads, state, config.lr)
            correct = int(np.sum(predicted_classes(forward(model, xs).p) == ys))
            history.append(HistoryRecord(name, epoch, loss_sum / len(order),
                                         correct / len(order)))
    return model, history


def reference_stages(split, config) -> list:
    return [(stage.name, [(PIPELINE.vector(lr.review.text), int(lr.sarcastic))
                          for lr in training.build_stage_pool(stage, split, config.seed, index)])
            for index, stage in enumerate(config.stages)]


class TestStackedTraining:
    """A stack of networks trains each member to the bits of its own lone run."""

    # 6, 12 and 40 reviews in batches of 5: the first two end on batches of 1 and 2.
    STAGES = (SarcasticOnly(6), NonSarcasticDominated(12, 3.0), Main())

    def assert_trained_alone(self, trained, split, config, mlp):
        model, history = trained
        expected_model, expected_history = reference_train(
            reference_stages(split, config), config, mlp)
        assert model.config == mlp
        assert model.params.tobytes() == expected_model.params.tobytes()
        assert history == expected_history

    @pytest.mark.parametrize("hidden", [(8,), (15, 15)])
    @pytest.mark.parametrize("keep_prob", [1.0, 0.75])
    def test_star_stack(self, hidden, keep_prob):
        """Each star has its own split, seeds and initial model."""
        splits = {stars: make_split(synthetic_pool(60, stars=stars, seed=stars), 40, 20,
                                    seed=stars)
                  for stars in (4, 1, 3)}
        configs = {stars: (TrainConfig(stages=self.STAGES, epochs=2, batch_size=5,
                                       seed=10 + stars),
                           MlpConfig(hidden=hidden, keep_prob=keep_prob, seed=20 + stars))
                   for stars in splits}
        trained = training._train_stars(splits, configs, PIPELINE)
        assert list(trained) == [4, 1, 3]
        for stars, split in splits.items():
            self.assert_trained_alone(trained[stars], split, *configs[stars])

    @pytest.mark.parametrize("hidden", [(8,), (15, 15)])
    @pytest.mark.parametrize("keep_prob", [1.0, 0.75])
    def test_rate_stack(self, hidden, keep_prob):
        """Every rate shares the split, seeds and initial model."""
        split = make_split(synthetic_pool(60), 40, 20, seed=4)
        config = TrainConfig(stages=self.STAGES, epochs=2, batch_size=5, seed=1)
        mlp = MlpConfig(hidden=hidden, keep_prob=keep_prob, seed=2)
        rates = [replace(config, lr=lr) for lr in (1e-3, 1e-2, 1e-1)]
        trained = training._train_stack(*training._stack_inputs([split], [config], PIPELINE),
                                        rates, [mlp] * len(rates), [""] * len(rates))
        for member, rate in zip(trained, rates):
            self.assert_trained_alone(member, split, rate, mlp)

    def test_the_first_rate_in_grid_order_reports_its_first_failure(self):
        """The second rate fails first, in epoch 1; the first fails in epoch 3."""
        split = make_split(synthetic_pool(60), 40, 20, seed=4)
        config = TrainConfig(stages=(Main(),), epochs=4, batch_size=10, seed=1,
                             lr_grid=(2e99, 1e308))
        mlp = MlpConfig(hidden=(8,), seed=0)
        alone = "parameters beyond 1e+100 in stage 'main', epoch 3"
        for lr, failure in zip(config.lr_grid, (alone, "non-finite loss in stage 'main', "
                                                        "epoch 1, batch 2")):
            with pytest.raises(TrainingDivergence,
                               match=f"^{re.escape(f'2-star model: {failure}')}$"):
                train(split, replace(config, lr=lr), mlp, PIPELINE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergence,
                               match=f"^{re.escape(f'2-star model, lr 2e+99: {alone}')}$"):
                lr_sweep(split, config, mlp, PIPELINE)


class TestCurriculumTrain:
    def test_full_curriculum_runs_and_orders_stages(self):
        pool = synthetic_pool(120)
        split = make_split(pool, 80, 40, seed=5)
        config = TrainConfig(
            lr=0.01, epochs=2, batch_size=10, seed=11,
            stages=(SarcasticOnly(12), NonSarcasticDominated(12, 3.0), Main()),
        )
        model, history = train(split, config, MlpConfig(hidden=(10,), seed=2), PIPELINE)
        assert [h.stage for h in history] == (
            ["sarcastic_only"] * 2 + ["non_sarcastic_dominated"] * 2 + ["main"] * 2)
        assert isinstance(model, MlpModel)

    def test_curriculum_draws_only_from_train_side(self):
        pool = synthetic_pool(40, sarcastic_fraction=0.5)
        split = make_split(pool, 30, 10, seed=1)
        stage = SarcasticOnly(5)
        chosen = training.build_stage_pool(stage, split, 3, 0)
        train_ids = {lr.review.review_id for lr in split.train}
        assert all(lr.review.review_id in train_ids for lr in chosen)
        assert all(lr.sarcastic for lr in chosen)

    def test_insufficient_stage_pool_propagates(self):
        pool = synthetic_pool(30, sarcastic_fraction=0.2)
        split = make_split(pool, 20, 10, seed=2)
        config = TrainConfig(stages=(SarcasticOnly(500),), epochs=1,
                             batch_size=5, seed=0)
        with pytest.raises(DataError, match="2-star stage 1 .* needs 500 sarcastic"):
            train(split, config, MlpConfig(hidden=(8,), seed=0), PIPELINE)

    def test_divergence_names_the_star(self, monkeypatch):
        monkeypatch.setattr(training, "cross_entropy", lambda p, y: float("inf"))
        split = make_split(synthetic_pool(20), 20, 0, seed=0)
        config = TrainConfig(stages=(Main(),), epochs=1, batch_size=5, seed=0)
        with pytest.raises(TrainingDivergence, match=r"^2-star model: non-finite loss in "
                                                     r"stage 'main', epoch 1, batch 1$"):
            train(split, config, MlpConfig(hidden=(8,), seed=0), PIPELINE)


class TestBuildStagePool:
    """Stage selection, and the one place its shortage rule lives."""

    def split(self, stars, n_sarcastic, n_plain):
        pool = [LabeledReview(Review(f"{stars}-{i}", stars, f"text {i}"), i < n_sarcastic)
                for i in range(n_sarcastic + n_plain)]
        return make_split(pool, n_sarcastic + n_plain, 0, seed=0)

    def test_fillable_stages_pass(self):
        stages = (SarcasticOnly(5), NonSarcasticDominated(20, 3.0), Main())
        split = self.split(1, 5, 15)
        pools = [training.build_stage_pool(stage, split, 0, index)
                 for index, stage in enumerate(stages)]
        assert [len(pool) for pool in pools] == [5, 20, 20]
        # A warm-up stage lists its non-sarcastic reviews first.
        assert [lr.sarcastic for lr in pools[1]] == [False] * 15 + [True] * 5

    @pytest.mark.parametrize("stage, message", [
        (SarcasticOnly(6), "1-star stage 2 (sarcastic_only) needs 6 sarcastic reviews, "
                           "the train side has 5"),
        (NonSarcasticDominated(20, 4.0), "1-star stage 2 (non_sarcastic_dominated) needs "
                                         "16 non-sarcastic reviews, the train side has 15"),
        (NonSarcasticDominated(40, 3.0), "1-star stage 2 (non_sarcastic_dominated) needs "
                                         "10 sarcastic reviews, the train side has 5"),
    ], ids=["sarcastic-short", "non-sarcastic-short", "both-short"])
    def test_names_star_stage_class_need_and_have(self, stage, message):
        split = self.split(1, 5, 15)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            training.build_stage_pool(stage, split, 0, 1)

    def test_every_split_is_checked(self):
        fillable, short = self.split(1, 10, 10), self.split(2, 3, 10)
        assert len(training.build_stage_pool(SarcasticOnly(4), fillable, 0, 0)) == 4
        with pytest.raises(DataError, match="2-star stage 1"):
            training.build_stage_pool(SarcasticOnly(4), short, 0, 0)

    def test_label_filter_and_size(self):
        subset = training.build_stage_pool(SarcasticOnly(500), self.split(1, 600, 600), 4, 0)
        assert len(subset) == 500
        assert all(lr.sarcastic for lr in subset)

    def test_insufficient_matching_message(self):
        with pytest.raises(DataError, match="needs 500 sarcastic reviews, "
                                            "the train side has 10"):
            training.build_stage_pool(SarcasticOnly(500), self.split(1, 10, 10), 0, 0)

    def test_non_sarcastic_selection(self):
        stage = NonSarcasticDominated(3, 1e9)  # 3 non-sarcastic, 0 sarcastic
        subset = training.build_stage_pool(stage, self.split(1, 5, 5), 1, 0)
        assert len(subset) == 3
        assert not any(lr.sarcastic for lr in subset)

    def test_determinism(self):
        split = self.split(1, 20, 20)
        assert training.build_stage_pool(SarcasticOnly(10), split, 2, 0) == \
               training.build_stage_pool(SarcasticOnly(10), split, 2, 0)


class CountingPipeline(FeaturePipeline):
    def __init__(self):
        super().__init__(LEXICONS)
        self.calls = 0

    def vector(self, text):
        self.calls += 1
        return super().vector(text)


class TestVectorizeOnce:
    STAGES = (SarcasticOnly(8), NonSarcasticDominated(12, 3.0), Main())

    def test_train_vectorizes_each_text_once(self):
        split = make_split(synthetic_pool(60), 40, 20, seed=4)
        pipe = CountingPipeline()
        config = TrainConfig(stages=self.STAGES, epochs=1, batch_size=4, seed=1)
        train(split, config, MlpConfig(hidden=(8,), seed=0), pipe)
        assert pipe.calls == len({lr.review.text for lr in split.train})

    def test_sweep_shares_vectors_across_grid_points(self):
        split = make_split(synthetic_pool(60), 40, 20, seed=4)
        pipe = CountingPipeline()
        config = TrainConfig(stages=self.STAGES, epochs=2, batch_size=4, seed=1,
                             lr_grid=(1e-3, 1e-2, 1e-1))
        mlp = MlpConfig(hidden=(8,), seed=0)
        results = lr_sweep(split, config, mlp, pipe)
        assert pipe.calls == (len({lr.review.text for lr in split.train})
                              + len(split.test))
        for lr, metrics in results:
            model, _ = train(split, replace(config, lr=lr), mlp, PIPELINE)
            assert metrics == prf1(evaluate(model, list(split.test), PIPELINE).cm)


def constant_classifier(always: int):
    """A model whose output bias forces one class regardless of input."""
    base = init_model(MlpConfig(hidden=(7,), seed=0))
    bias = np.array([0.0, 50.0]) if always == 1 else np.array([50.0, 0.0])
    return from_layers(base.config,
                       [np.zeros_like(w) for w in base.weights],
                       (np.zeros(7), bias))


class TestEvaluate:
    def test_constant_sarcastic_counts(self):
        test = [LabeledReview(Review(f"r{i}", 1, "meh"), i < 3) for i in range(10)]
        outcome = evaluate(constant_classifier(1), test, PIPELINE)
        assert outcome.cm == ConfusionMatrix(tp=3, fp=7, fn=0, tn=0)
        assert outcome.excluded == 0

    def test_order_invariance(self):
        test = [LabeledReview(Review(f"r{i}", 1, f"text {i}!"), i % 3 == 0)
                for i in range(12)]
        outcome_a = evaluate(constant_classifier(0), test, PIPELINE)
        outcome_b = evaluate(constant_classifier(0), list(reversed(test)), PIPELINE)
        assert outcome_a.cm == outcome_b.cm

    def test_matches_per_row_predict(self):
        test = synthetic_pool(40, stars=1, seed=3)
        model = init_model(MlpConfig(hidden=(12, 10), seed=8))
        tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for lr in test:
            predicted, _ = predict(model, PIPELINE.vector(lr.review.text))
            key = {(1, True): "tp", (1, False): "fp",
                   (0, True): "fn", (0, False): "tn"}[(predicted, lr.sarcastic)]
            tally[key] += 1
        assert evaluate(model, test, PIPELINE).cm == ConfusionMatrix(**tally)

    def test_ties_go_to_non_sarcastic(self):
        zero = constant_classifier(0)
        tied = from_layers(zero.config, zero.weights, (np.zeros(7), np.zeros(2)))
        test = [LabeledReview(Review(f"r{i}", 1, "so?!"), i < 4) for i in range(6)]
        assert evaluate(tied, test, PIPELINE).cm == ConfusionMatrix(tp=0, fp=0, fn=4, tn=2)

    def test_pipeline_bug_propagates(self):
        """Every error of the pipeline propagates, a DataError too."""
        test = [LabeledReview(Review("r1", 1, "fine"), False)]
        for error in (RuntimeError("bug"), DataError("unreadable")):
            class FailingPipeline(FeaturePipeline):
                def vector(self, text):
                    raise error

            with pytest.raises(type(error), match=str(error)):
                evaluate(constant_classifier(0), test, FailingPipeline(LEXICONS))


class TestMetrics:
    def test_worked_example(self):
        metrics = prf1(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
        assert metrics.precision == pytest.approx(0.75)
        assert metrics.recall == pytest.approx(0.6)
        assert metrics.f1 == pytest.approx(2 / 3)
        assert metrics.accuracy == pytest.approx(0.7)

    def test_zero_denominator_conventions(self):
        empty = prf1(ConfusionMatrix())
        assert (empty.precision, empty.recall, empty.f1, empty.accuracy) == (0, 0, 0, 0)
        no_positive_predictions = prf1(ConfusionMatrix(tp=0, fp=0, fn=5, tn=5))
        assert no_positive_predictions.precision == 0.0
        assert no_positive_predictions.f1 == 0.0

    def test_f1_between_p_and_r(self):
        rng = random.Random(14)
        for _ in range(300):
            cm = ConfusionMatrix(tp=rng.randrange(20), fp=rng.randrange(20),
                                 fn=rng.randrange(20), tn=rng.randrange(20))
            m = prf1(cm)
            for value in (m.precision, m.recall, m.f1, m.accuracy):
                assert 0.0 <= value <= 1.0
            if m.precision + m.recall > 0:
                assert min(m.precision, m.recall) - 1e-12 <= m.f1
                assert m.f1 <= max(m.precision, m.recall) + 1e-12

    def test_f1_score_helper(self):
        assert f1_score(0.67, 0.77) == pytest.approx(2 * 0.67 * 0.77 / 1.44)
        assert f1_score(0.0, 0.0) == 0.0

    def test_macro_average_arity(self):
        with pytest.raises(ValueError, match="exactly 5"):
            macro_average([prf1(ConfusionMatrix(1, 1, 1, 1))] * 4)

    def test_macro_of_identical_sets_is_identity(self):
        metrics = ClassMetrics(0.4, 0.6, 0.48, 0.5)
        p, r, f1 = macro_average([metrics] * 5)
        assert (p, r, f1) == (0.4, 0.6, 0.48)


class TestSweep:
    def test_ranked_rows_and_determinism(self):
        pool = synthetic_pool(60)
        split = make_split(pool, 40, 20, seed=8)
        config = TrainConfig(stages=(Main(),), epochs=3, batch_size=10,
                             lr_grid=(1e-4, 1e-2), seed=13)
        mlp = MlpConfig(hidden=(9,), keep_prob=1.0, seed=3)
        first = lr_sweep(split, config, mlp, PIPELINE)
        second = lr_sweep(split, config, mlp, PIPELINE)
        assert first == second
        assert len(first) == 2
        assert first[0][1].accuracy >= first[1][1].accuracy

    def test_accuracy_tie_prefers_lower_lr(self):
        # Rates this small barely move the initial weights in one epoch, so
        # the two smallest tie on test accuracy.
        split = make_split(synthetic_pool(60), 40, 20, seed=8)
        config = TrainConfig(stages=(Main(),), epochs=1, batch_size=10,
                             lr_grid=(1e-12, 1e-11, 1e-2))
        mlp = MlpConfig(hidden=(9,), keep_prob=1.0, seed=3)
        results = lr_sweep(split, config, mlp, PIPELINE)
        assert results[0][1].accuracy == results[1][1].accuracy
        assert [lr for lr, _ in results[:2]] == [1e-12, 1e-11]


class TestReports:
    def make_reports(self):
        cms = {
            1: ConfusionMatrix(10, 5, 3, 12),
            2: ConfusionMatrix(8, 2, 8, 12),
            3: ConfusionMatrix(14, 5, 4, 7),
            4: ConfusionMatrix(9, 5, 3, 13),
            5: ConfusionMatrix(7, 6, 3, 14),
        }
        return {s: training.EvalResult(cm) for s, cm in cms.items()}

    def test_table_layout(self):
        text = render_metrics_table(self.make_reports())
        lines = text.splitlines()
        assert lines[0].split() == ["Metric", "1-star", "2-star", "3-star",
                                    "4-star", "5-star"]
        assert [line.split()[0] for line in lines[1:5]] == \
               ["Precision", "Recall", "F1", "Accuracy"]
        assert lines[-1].startswith("Macro averages:")

    def test_table_text(self):
        assert render_metrics_table(self.make_reports()) == (
            "Metric     1-star  2-star  3-star  4-star  5-star\n"
            "Precision    0.67    0.80    0.74    0.64    0.54\n"
            "Recall       0.77    0.50    0.78    0.75    0.70\n"
            "F1           0.71    0.62    0.76    0.69    0.61\n"
            "Accuracy     0.73    0.67    0.70    0.73    0.70\n"
            "\n"
            "Macro averages: precision 0.68, recall 0.70, F1 0.68\n")

    def test_partial_table_text(self):
        reports = {k: v for k, v in self.make_reports().items() if k in (2, 4)}
        assert render_metrics_table(reports) == (
            "Metric     2-star  4-star\n"
            "Precision    0.80    0.64\n"
            "Recall       0.50    0.75\n"
            "F1           0.62    0.69\n"
            "Accuracy     0.67    0.73\n")

    def test_empty_table_text(self):
        assert render_metrics_table({}) == "Metric\nPrecision\nRecall\nF1\nAccuracy\n"

    def test_partial_table_has_no_macro_line(self):
        reports = {k: v for k, v in self.make_reports().items() if k in (2, 4)}
        text = render_metrics_table(reports)
        assert "Macro" not in text
        assert "2-star" in text and "4-star" in text

    def test_report_file_round_trip(self, tmp_path):
        reports = self.make_reports()
        path = tmp_path / "report.json"
        write_report(path, reports, provenance={"seed": 0})
        doc = json.loads(path.read_text())
        assert set(doc["per_star"]) == {"1", "2", "3", "4", "5"}
        metrics = prf1(reports[3].cm)
        assert doc["per_star"]["3"]["precision"] == metrics.precision
        expected_macro = macro_average([prf1(reports[s].cm) for s in range(1, 6)])
        assert doc["macro"]["f1"] == expected_macro[2]
        assert doc["provenance"] == {"seed": 0}

    def test_history_file_layout(self, tmp_path):
        history = [training.HistoryRecord("main", 1, 0.7, 0.5),
                   training.HistoryRecord("main", 2, 0.6, 0.7)]
        path = tmp_path / "history.jsonl"
        write_history(path, history, provenance={"seed": 3})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"provenance": {"seed": 3}}
        assert lines[1]["epoch"] == 1 and lines[2]["mean_loss"] == 0.6

    def test_sweep_table_rows(self):
        results = [(1e-2, ClassMetrics(precision=0.8, recall=0.7, f1=0.75, accuracy=0.9)),
                   (1e-3, ClassMetrics(precision=0.5, recall=0.4, f1=0.44, accuracy=0.6))]
        assert render_sweep_table(results) == (
            "        lr  accuracy  precision  recall      f1\n"
            "      0.01    0.9000     0.8000  0.7000  0.7500\n"
            "     0.001    0.6000     0.5000  0.4000  0.4400\n")
