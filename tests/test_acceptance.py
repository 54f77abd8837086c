"""Release acceptance gate.

Each test class below implements one numbered criterion from the release
checklist; the conftest summary prints a PASS/FAIL line per criterion at
the end of the run. Tolerances and runtime budgets are stated inline and
are part of the contract, not implementation detail.

Criterion 1 checks that the reference per-star metrics this toolkit is
built to reproduce are arithmetically closed under two-decimal rounding:
that each quoted F1 can be the rounded harmonic mean of some precision
and recall that round to the quoted ones, and that the quoted macro
averages are the means of the per-star columns. A two-decimal value v
stands for an exact value in [v - 0.005, v + 0.005), and F1 rises in
both precision and recall, so the exact F1 of a row lies in
[f1(P - 0.005, R - 0.005), f1(P + 0.005, R + 0.005)); the quoted F1's
own rounding cell must meet that range. Each row admits exactly two
two-decimal F1 values.

Rows 1 and 5 are not closed at the rounded point: f1(0.67, 0.77) is
0.7165, which rounds to 0.72, not the quoted 0.71, and f1(0.54, 0.68) is
0.6020, which rounds to 0.60, not 0.61. Both are closed over the cell:
P 0.665 and R 0.765 give 0.7115, which rounds to 0.71, and P 0.5449 and
R 0.6849 give 0.6069, which rounds to 0.61.
"""

import hashlib
import json
import math
import random
import shutil
import time

import numpy as np
import pytest
from model_layers import from_layers

import sarcnet.cli as cli
from sarcnet.corpus import LabeledReview, Review, make_split, read_reviews
from sarcnet.features import FeatureCounts, FeaturePipeline
from sarcnet.lexicons import DEFAULT_LEXICON_DIR
from sarcnet.network import (
    MlpConfig,
    MlpModel,
    adam_step,
    backward,
    cross_entropy,
    dropout_mask,
    forward,
    init_adam_state,
    init_model,
    softmax,
    zero_gradients,
)
from sarcnet.training import (
    ConfusionMatrix,
    Main,
    TrainConfig,
    f1_score,
    prf1,
    train_on_vectors,
)

# Reference per-star metrics (precision, recall, F1) for stars 1..5.
REFERENCE_ROWS = [
    (1, 0.67, 0.77, 0.71),
    (2, 0.78, 0.61, 0.68),
    (3, 0.74, 0.77, 0.75),
    (4, 0.66, 0.72, 0.69),
    (5, 0.54, 0.68, 0.61),
]

# A two-decimal value v stands for an exact value in [v - HALF_CENT, v + HALF_CENT).
HALF_CENT = 0.005


def f1_admitted_by_rounding(precision: float, recall: float, f1: float) -> bool:
    """True if exact values rounding to the quoted P, R and F1 can satisfy F1 = f1(P, R).

    F1 is increasing in both arguments, so over the rounding cells of P and
    R it ranges over [f1(P - h, R - h), f1(P + h, R + h)), with h =
    HALF_CENT; the quoted F1 is admitted when its own cell meets that range.
    """
    low = f1_score(precision - HALF_CENT, recall - HALF_CENT)
    high = f1_score(precision + HALF_CENT, recall + HALF_CENT)
    return low < f1 + HALF_CENT and high > f1 - HALF_CENT


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.acceptance(1)
class TestCriterion1ReferenceClosure:
    @pytest.mark.parametrize("stars,precision,recall,f1", REFERENCE_ROWS)
    def test_f1_is_rounded_harmonic_mean(self, stars, precision, recall, f1):
        assert f1_admitted_by_rounding(precision, recall, f1), (
            f"no P, R rounding to {precision:.2f}, {recall:.2f} "
            f"has an F1 that rounds to {f1:.2f}")

    def test_closure_rejects_f1_one_cent_outside_admitted_pair(self):
        cases = [
            (0.67, 0.77, (0.71, 0.72), (0.70, 0.73)),
            (0.54, 0.68, (0.60, 0.61), (0.59, 0.62)),
        ]
        for precision, recall, admitted, rejected in cases:
            for f1 in admitted:
                assert f1_admitted_by_rounding(precision, recall, f1), f1
            for f1 in rejected:
                assert not f1_admitted_by_rounding(precision, recall, f1), f1

    def test_macro_precision(self):
        mean = sum(row[1] for row in REFERENCE_ROWS) / 5.0
        assert f"{mean:.3f}" == "0.678"

    def test_macro_recall(self):
        mean = sum(row[2] for row in REFERENCE_ROWS) / 5.0
        assert f"{mean:.2f}" == "0.71"

    def test_runtime_under_one_second(self):
        start = time.perf_counter()
        for _, precision, recall, _ in REFERENCE_ROWS:
            f1_score(precision, recall)
        assert time.perf_counter() - start < 1.0


def numeric_gradients(model: MlpModel, x: np.ndarray, y: int, h: float = 1e-5):
    """Central-difference loss gradients for every parameter tensor."""

    def loss() -> float:
        return cross_entropy(forward(model, x, mode="infer").p, y)

    grads_w, grads_b = [], []
    for tensors, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for tensor in tensors:
            grad = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                original = tensor[idx]
                tensor[idx] = original + h
                up = loss()
                tensor[idx] = original - h
                down = loss()
                tensor[idx] = original
                grad[idx] = (up - down) / (2.0 * h)
                it.iternext()
            grads.append(grad)
    return grads_w, grads_b


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1e-12, float(np.linalg.norm(analytic) + np.linalg.norm(numeric)))
    return float(np.linalg.norm(analytic - numeric)) / scale


@pytest.mark.acceptance(2)
class TestCriterion2GradientOracle:
    def test_backward_matches_central_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20260815)
        checked = 0
        worst = 0.0
        hidden_choices = [(7,), (9,), (15,), (9, 8), (12, 10), (15, 15)]
        for instance in range(24):
            hidden = hidden_choices[instance % len(hidden_choices)]
            model = init_model(MlpConfig(hidden=hidden,
                                         seed=int(rng.integers(1 << 31))))
            x = rng.uniform(-1.0, 1.0, size=15)
            y = int(rng.integers(2))
            trace = forward(model, x, mode="infer")
            analytic = backward(model, trace, y)
            numeric_w, numeric_b = numeric_gradients(model, x, y)
            for a, n in zip(analytic.weights, numeric_w):
                worst = max(worst, relative_error(a, n))
            for a, n in zip(analytic.biases, numeric_b):
                worst = max(worst, relative_error(a, n))
            checked += 1
        assert checked >= 20
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(3)
class TestCriterion3AdamOracle:
    def zero_model(self) -> MlpModel:
        base = init_model(MlpConfig(hidden=(7,), seed=0))
        return from_layers(base.config,
                           [np.zeros_like(w) for w in base.weights],
                           [np.zeros_like(b) for b in base.biases])

    def test_first_step_is_minus_lr(self):
        model = self.zero_model()
        grads = zero_gradients(model)
        grads.weights[0][0, 0] = 1.0
        stepped, state = adam_step(model, grads, init_adam_state(model), lr=0.01)
        assert abs(stepped.weights[0][0, 0] - (-0.01)) < 1e-9
        assert state.t == 1

    def test_zero_gradient_leaves_parameters_bit_identical(self):
        model = init_model(MlpConfig(hidden=(9, 8), seed=5))
        state = init_adam_state(model)
        for _ in range(3):
            model_next, state = adam_step(model, zero_gradients(model), state,
                                          lr=0.01)
            for before, after in zip(model.weights, model_next.weights):
                assert np.array_equal(before, after)
            for before, after in zip(model.biases, model_next.biases):
                assert np.array_equal(before, after)
            model = model_next
        assert state.t == 3


@pytest.mark.acceptance(4)
class TestCriterion4SoftmaxAndLoss:
    def test_extreme_logits_normalize(self):
        rng = np.random.default_rng(11)
        cases = [np.array([1e6, -1e6]), np.array([-1e6, 1e6]),
                 np.array([1e6, 1e6]), np.array([0.0, 0.0])]
        cases += [rng.uniform(-1e6, 1e6, size=2) for _ in range(200)]
        for logits in cases:
            p = softmax(logits)
            assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
            assert abs(float(p.sum()) - 1.0) < 1e-12

    def test_cross_entropy_of_even_split_is_ln_two(self):
        p = np.array([0.5, 0.5])
        assert abs(cross_entropy(p, 0) - math.log(2.0)) < 1e-12
        assert abs(cross_entropy(p, 1) - math.log(2.0)) < 1e-12


@pytest.mark.acceptance(5)
class TestCriterion5DropoutProperty:
    def test_mask_values_and_keep_rate(self):
        rng = np.random.default_rng(77)
        mask = dropout_mask(rng, 100_000, keep_prob=0.75)
        values = set(np.unique(mask))
        assert values <= {0.0, 1.0 / 0.75}
        keep_rate = float(np.mean(mask > 0.0))
        assert abs(keep_rate - 0.75) < 0.01

    def test_keep_prob_one_makes_train_equal_infer(self):
        model = init_model(MlpConfig(hidden=(9, 8), keep_prob=1.0, seed=2))
        rng = np.random.default_rng(4)
        x = np.linspace(0.0, 1.0, 15)
        train_trace = forward(model, x, mode="train", rng=rng)
        infer_trace = forward(model, x, mode="infer")
        assert np.array_equal(train_trace.p, infer_trace.p)
        for a, b in zip(train_trace.activations, infer_trace.activations):
            assert np.array_equal(a, b)


def separable_forty_vectors(seed: int = 20260815) -> list:
    """20 high-activation and 20 low-activation vectors with a wide margin."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(20):
        hot = 0.7 + 0.3 * rng.random(15)
        hot[7:] = 0.4 * rng.random(8)
        examples.append((hot, 1))
        cold = 0.25 * rng.random(15)
        examples.append((cold, 0))
    return examples


def linear_separability_certificate(examples: list):
    """Perceptron search; returns an augmented weight vector or None.

    The caller must re-verify the returned certificate explicitly, which
    keeps this helper honest: a bug here cannot silently vouch for a
    non-separable set.
    """
    w = np.zeros(16)
    for _ in range(10_000):
        updated = False
        for x, y in examples:
            z = np.append(x, 1.0)
            sign = 1.0 if y == 1 else -1.0
            if sign * float(w @ z) <= 0.0:
                w = w + sign * z
                updated = True
        if not updated:
            return w
    return None


@pytest.mark.acceptance(6)
class TestCriterion6OverfitSanity:
    def test_reaches_perfect_train_accuracy(self):
        start = time.perf_counter()
        examples = separable_forty_vectors()
        assert len(examples) == 40

        certificate = linear_separability_certificate(examples)
        assert certificate is not None, "set is not linearly separable"
        for x, y in examples:
            side = float(certificate @ np.append(x, 1.0)) > 0.0
            assert side == (y == 1)

        config = TrainConfig(stages=(Main(),), lr=0.01, epochs=200,
                             batch_size=10, seed=7)
        _, history = train_on_vectors(
            [("main", examples)], config,
            MlpConfig(hidden=(15, 15), keep_prob=0.75, seed=1))
        assert any(record.train_accuracy == 1.0 for record in history)
        assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(7)
class TestCriterion7PipelineFixtures:
    def test_interjection_sentence_counts(self):
        counts = FeaturePipeline().counts(
            "Haha! I'm trying to imagine you with a personality!!")
        assert counts == FeatureCounts(f1=1, f7=1, f11=1, f14=1, word_count=9)

    def test_invocation_sentence_counts(self):
        counts = FeaturePipeline().counts("God! Aren't we clever??")
        assert counts == FeatureCounts(f2=1, f4=1, f8=1, f11=1, f15=1,
                                       word_count=4)

    def test_lexicon_change_changes_dump_digest(self, minicorpus_dir, tmp_path,
                                                monkeypatch, capsys):
        reviews = str(minicorpus_dir / "reviews.jsonl")
        out_before = tmp_path / "before.csv"
        out_after = tmp_path / "after.csv"
        assert cli.main(["extract", "--reviews", reviews, "--stars", "1",
                         "--out", str(out_before)]) == 0

        altered = tmp_path / "lexicons"
        shutil.copytree(DEFAULT_LEXICON_DIR, altered)
        with open(altered / "intensifiers.txt", "a", encoding="utf-8") as fh:
            fh.write("usually\n")
        monkeypatch.setenv("SARCNET_LEXICONS", str(altered))
        assert cli.main(["extract", "--reviews", reviews, "--stars", "1",
                         "--out", str(out_after)]) == 0

        assert sha(out_before) != sha(out_after)
        digest_line = [line for line in out_before.read_text().splitlines()
                       if "lexicon_digest" in line]
        altered_line = [line for line in out_after.read_text().splitlines()
                        if "lexicon_digest" in line]
        assert digest_line and altered_line and digest_line != altered_line


@pytest.mark.acceptance(8)
class TestCriterion8EndToEndDeterminism:
    ARGS = [
        "--train-size", "70", "--test-size", "30", "--seed", "42",
    ]
    TRAIN_ARGS = [
        "--stages", "sarcastic:15,dominated:16:3,main",
        "--epochs", "10", "--batch-size", "10",
    ]

    def run_pipeline(self, corpus_dir, out_dir):
        reviews = str(corpus_dir / "reviews.jsonl")
        labels = str(corpus_dir / "labels.jsonl")
        model = str(out_dir / "model-{stars}.json")
        code = cli.main(["train", "--reviews", reviews, "--labels", labels,
                         "--stars", "all", *self.ARGS, *self.TRAIN_ARGS,
                         "--model", model,
                         "--out", str(out_dir / "history-{stars}.jsonl")])
        assert code == 0
        code = cli.main(["eval", "--reviews", reviews, "--labels", labels,
                         "--stars", "all", *self.ARGS,
                         "--model", model,
                         "--out", str(out_dir / "report.json")])
        assert code == 0

    def test_reruns_are_byte_identical_and_fast(self, minicorpus_dir, tmp_path,
                                                capsys):
        start = time.perf_counter()
        first = tmp_path / "run-a"
        second = tmp_path / "run-b"
        first.mkdir()
        second.mkdir()
        self.run_pipeline(minicorpus_dir, first)
        self.run_pipeline(minicorpus_dir, second)
        elapsed = time.perf_counter() - start

        for stars in range(1, 6):
            name = f"model-{stars}.json"
            assert sha(first / name) == sha(second / name), name
            name = f"history-{stars}.jsonl"
            assert sha(first / name) == sha(second / name), name
        assert sha(first / "report.json") == sha(second / "report.json")

        report = json.loads((first / "report.json").read_text())
        assert set(report["per_star"]) == {"1", "2", "3", "4", "5"}
        assert "macro" in report
        assert elapsed < 60.0, f"two full pipelines took {elapsed:.1f}s"


class TestGoldenDigests:
    """Pins the bytes of the mini-corpus artifacts of criterion 8, ingest and
    extract, and of predict's stdout.

    Criterion 8 only checks that two reruns agree, so a change that drifts
    the floats would pass it silently. No command reads a manifest, a
    feature dump or predict's output back, so only these digests see their
    bytes move. The digests were taken on x86-64 (AVX-512) with Python
    3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31; the last bits of the
    float math can differ on another BLAS or CPU. A change that alters artifact bytes on purpose
    re-pins them and says why.
    """

    DIGESTS = {
        "model-1.json": "b803da172a40e6ed259c2da69b038a240b2f36589e8309538763ac96f4c4aaaf",
        "model-2.json": "6f71ccb787d2a0ba6e82891bd31a97e14acb21985f55571577525d654c6bc860",
        "model-3.json": "fd198e7fcd0db2efc1d47a49d312af96bcb69025494ca3e5c2d36b52a8ec7c43",
        "model-4.json": "ffebb9e9594f81c9a9c4f5d1467841447d930a01d073aea2fcfd0d2b9e2e3251",
        "model-5.json": "ee3aecc36c6c2289a6e21522759418468993f751b4070cf4a5d815bfef51ea38",
        "history-1.jsonl": "b4cc783589e2198e52950526b478503c03536bde1f8e7d9f577bc41e28b0ce84",
        "history-2.jsonl": "b33f12dadfd9297db8ba0e9249f6be17b8b0af7863167320ef2102e453352c43",
        "history-3.jsonl": "bb2fd320f22fc5c8b6cf0f92439a8a57c9511524de0a4ff9d1707e1414e276c6",
        "history-4.jsonl": "c0fd8c81fb3227c27d1522a62312bb2fa51e4a2dc1e47c5e5a992c7446f1b49f",
        "history-5.jsonl": "36b3e1d09b78043b0dfa333bcea49d0f45c0497307377bd483fbe421e4718227",
        "report.json": "15be58bb8cb61139bd8e934b40256d0a3758d2ce7c7417f7e8ebb1af722bcbc8",
    }

    INPUT_DIGESTS = {
        "split-1.json": "36eed381d353882ef9d26609fe4683cacb7d5ca57d5f37b12338491ada1a8814",
        "split-2.json": "4f05bfad0a97ed3fd07c0bedebe5ce28359c512df8b0d1930a4c42a2dd22f708",
        "split-3.json": "c01461510bcd0192d1f47389092af515e6b5a640dbeeb41f661775a4db6a625c",
        "split-4.json": "b4d402842d9fffa9f5ee37db2c8148da83dbb480e0ac489ee0d918470ba9072e",
        "split-5.json": "d054f30e5107ab4733afd7f967da0dcf35a98baa8d184ad1c8768ed16e008042",
        "features.csv": "cdf96309be38b73673371a0ba629d8a4f4d1a00283921865a5e14d5e886821d8",
    }

    # predict's stdout for model-3.json over the mini-corpus texts, two in
    # four of them joined into one line by whitespace that ends no line
    PREDICT_DIGEST = "a76470ed73d29493dc36a6bc066f60e69f4c15442728d9bd798fb1fd799b3020"

    # Whitespace that str.split() splits at but a predict line does not end at
    JOINERS = ("\t", "\x1c", "\x85", "\u2028", "\u3000")

    @pytest.fixture(scope="class")
    def criterion8_dir(self, minicorpus_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("criterion8")
        TestCriterion8EndToEndDeterminism().run_pipeline(minicorpus_dir, out)
        return out

    def test_artifact_digests(self, criterion8_dir):
        actual = {name: sha(criterion8_dir / name) for name in self.DIGESTS}
        assert actual == self.DIGESTS

    def test_predict_stdout_digest(self, criterion8_dir, minicorpus_dir, tmp_path, capsys):
        reviews, _ = read_reviews(minicorpus_dir / "reviews.jsonl")
        texts = [review.text for review in reviews]
        lines = []
        for k in range(0, len(texts), 2):
            pair = texts[k:k + 2]
            if k % 4 == 0:
                lines.append(self.JOINERS[k // 4 % len(self.JOINERS)].join(pair))
            else:
                lines.extend(pair)
        data = "\n".join(lines).encode("utf-8") + b"\n\n \t\nnot \xff UTF-8\n"
        path = tmp_path / "lines.txt"
        path.write_bytes(data)
        capsys.readouterr()
        assert cli.main(["predict", "--model", str(criterion8_dir / "model-3.json"),
                         str(path)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(lines)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PREDICT_DIGEST

    def test_manifest_and_feature_dump_digests(self, minicorpus_dir, tmp_path, capsys):
        corpus = ["--reviews", str(minicorpus_dir / "reviews.jsonl"),
                  "--labels", str(minicorpus_dir / "labels.jsonl")]
        assert cli.main(["ingest", *corpus, "--stars", "all",
                         *TestCriterion8EndToEndDeterminism.ARGS,
                         "--out", str(tmp_path / "split-{stars}.json")]) == 0
        assert cli.main(["extract", *corpus, "--out", str(tmp_path / "features.csv")]) == 0
        actual = {name: sha(tmp_path / name) for name in self.INPUT_DIGESTS}
        assert actual == self.INPUT_DIGESTS


@pytest.mark.acceptance(9)
class TestCriterion9MetricsOracle:
    def test_exact_agreement_with_brute_force_counter(self):
        rng = random.Random(613433)
        for _ in range(1000):
            n = rng.randint(1, 50)
            actual = [rng.random() < rng.uniform(0.1, 0.9) for _ in range(n)]
            predicted = [rng.random() < rng.uniform(0.1, 0.9) for _ in range(n)]

            tp = fp = fn = tn = 0
            for predicted_label, actual_label in zip(predicted, actual):
                if predicted_label and actual_label:
                    tp += 1
                elif predicted_label and not actual_label:
                    fp += 1
                elif not predicted_label and actual_label:
                    fn += 1
                else:
                    tn += 1

            expected_p = tp / (tp + fp) if tp + fp else 0.0
            expected_r = tp / (tp + fn) if tp + fn else 0.0
            expected_f1 = (2.0 * expected_p * expected_r / (expected_p + expected_r)
                           if expected_p + expected_r else 0.0)
            expected_acc = (tp + tn) / n

            metrics = prf1(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            assert metrics.precision == expected_p
            assert metrics.recall == expected_r
            assert metrics.f1 == expected_f1
            assert metrics.accuracy == expected_acc


@pytest.mark.acceptance(10)
class TestCriterion10SplitContract:
    def test_default_sizes_disjoint_single_star(self):
        pool = [LabeledReview(Review(f"r{i}", 3, f"review text {i}."), i % 2 == 0)
                for i in range(1200)]
        split = make_split(pool, 700, 300, seed=42)
        assert len(split.train) == 700
        assert len(split.test) == 300
        train_ids = {lr.review.review_id for lr in split.train}
        test_ids = {lr.review.review_id for lr in split.test}
        assert not train_ids & test_ids
        assert all(lr.review.stars == 3 for lr in split.train + split.test)
