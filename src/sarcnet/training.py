"""Curriculum-staged training, learning-rate sweeps, and per-star evaluation.

Training runs an ordered list of stages. The default curriculum warms the
network up on class-skewed subsets before the real split: first an
all-sarcastic stage, then a non-sarcastic-dominated stage, then the main
train set. Each stage shuffles its examples once with a stage seed,
partitions them into fixed minibatches (a trailing short batch is kept),
and takes one Adam step per batch on the mean cross-entropy gradient.
Adam state is reset between stages by default; a flag carries it across.

Every random choice flows from a single base seed through derive_seed,
so a (corpus, config, seed) triple always reproduces the same weights,
history, and report.

Each review is vectorized once per run, and each minibatch, accuracy
pass and evaluation is one batched network call.

Evaluation is read-only: the test reviews run through the feature
pipeline and one infer-mode forward pass, tallying a confusion matrix
with the sarcastic class as positive. Metrics use the 0-for-0/0 convention so
degenerate classifiers still produce a report.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import DatasetSplit, curriculum_subset
from .errors import DataError, TrainingDivergence
from .features import FeaturePipeline
from .network import (
    INPUT_DIM,
    AdamState,
    Gradients,
    MlpConfig,
    MlpModel,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_adam_state,
    init_model,
    predicted_classes,
)


def derive_seed(base: int, *salts) -> int:
    """Mix a base seed with context salts into a fresh 63-bit seed.

    Hash-based so unrelated consumers (stage shuffles, dropout streams,
    curriculum subsets) never collide just because their salts are close
    integers.
    """
    payload = "\x1f".join([str(base), *(str(s) for s in salts)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SarcasticOnly:
    """Warm-up stage: n purely sarcastic reviews."""
    n: int = 500
    name: str = field(default="sarcastic_only", init=False)


@dataclass(frozen=True)
class NonSarcasticDominated:
    """Counter-balance stage: n reviews at ratio non-sarcastic per sarcastic."""
    n: int = 500
    ratio: float = 3.0
    name: str = field(default="non_sarcastic_dominated", init=False)

    def class_sizes(self) -> tuple:
        n_non = round(self.n * self.ratio / (self.ratio + 1.0))
        return self.n - n_non, n_non  # (sarcastic, non-sarcastic)


@dataclass(frozen=True)
class Main:
    """The split's train set, unaltered."""
    name: str = field(default="main", init=False)


DEFAULT_STAGES = (SarcasticOnly(), NonSarcasticDominated(), Main())
DEFAULT_LR_GRID = (1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 100
    stages: tuple = DEFAULT_STAGES
    lr_grid: tuple = DEFAULT_LR_GRID
    seed: int = 0
    reshuffle_each_epoch: bool = False
    carry_adam_state: bool = False
    lr_decay: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "lr_grid", tuple(float(v) for v in self.lr_grid))
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not self.stages:
            raise ValueError("stages must be non-empty")
        if not self.lr_grid:
            raise ValueError("lr_grid must be non-empty")
        if list(self.lr_grid) != sorted(self.lr_grid):
            raise ValueError("lr_grid must be ascending")
        if self.lr_decay is not None and not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")


@dataclass(frozen=True)
class HistoryRecord:
    stage: str
    epoch: int
    mean_loss: float
    train_accuracy: float


def _run_stage(model: MlpModel, state: AdamState, examples: list,
               config: TrainConfig, stage_name: str, stage_seed: int,
               history: list) -> tuple:
    """Run all epochs of one stage; returns (model, adam state)."""
    if not examples:
        raise DataError(f"stage {stage_name!r} has no examples")
    if config.batch_size > len(examples):
        raise DataError(
            f"batch size {config.batch_size} exceeds stage size {len(examples)}")
    xs = np.array([x for x, _ in examples], dtype=float)
    ys = np.array([y for _, y in examples])
    # Shuffling indices gives the same permutation as shuffling the examples.
    order = list(range(len(examples)))
    random.Random(stage_seed).shuffle(order)
    dropout_rng = np.random.default_rng(derive_seed(stage_seed, "dropout"))
    lr = config.lr
    for epoch in range(1, config.epochs + 1):
        if config.reshuffle_each_epoch and epoch > 1:
            random.Random(derive_seed(stage_seed, "epoch", epoch)).shuffle(order)
        x_epoch, y_epoch = xs[order], ys[order]
        loss_sum = 0.0
        starts = range(0, len(order), config.batch_size)
        for batch_index, start in enumerate(starts, start=1):
            x_batch = x_epoch[start:start + config.batch_size]
            y_batch = y_epoch[start:start + config.batch_size]
            trace = forward(model, x_batch, mode="train", rng=dropout_rng)
            batch_loss = cross_entropy(trace.p, y_batch)
            if not math.isfinite(batch_loss):
                raise TrainingDivergence(
                    f"non-finite loss in stage {stage_name!r}, "
                    f"epoch {epoch}, batch {batch_index}")
            total = backward(model, trace, y_batch)
            scale = 1.0 / len(y_batch)
            mean_grads = Gradients(tuple(g * scale for g in total.weights),
                                   tuple(g * scale for g in total.biases))
            model, state = adam_step(model, mean_grads, state, lr)
            loss_sum += batch_loss
        correct = int(np.sum(predicted_classes(forward(model, xs).p) == ys))
        history.append(HistoryRecord(
            stage=stage_name,
            epoch=epoch,
            mean_loss=loss_sum / len(order),
            train_accuracy=correct / len(order),
        ))
        if config.lr_decay is not None:
            lr *= config.lr_decay
    return model, state


def train_on_vectors(staged_examples: list, config: TrainConfig,
                     mlp_config: MlpConfig) -> tuple:
    """Train over prepared stages of (name, [(vector, class)]) pairs.

    Returns (model, history). This is the core loop; ``train`` wraps it
    with review vectorization and curriculum subset selection.
    """
    model = init_model(mlp_config)
    state = init_adam_state(model)
    history = []
    for index, (stage_name, examples) in enumerate(staged_examples):
        if not config.carry_adam_state:
            state = init_adam_state(model)
        stage_seed = derive_seed(config.seed, "stage", index, stage_name)
        model, state = _run_stage(model, state, examples, config,
                                  stage_name, stage_seed, history)
    return model, history


def build_stage_pool(stage, pool: list, base_seed: int, stage_index: int) -> list:
    """Select the labeled reviews one curriculum stage trains on."""
    if isinstance(stage, SarcasticOnly):
        return curriculum_subset(
            pool, True, stage.n,
            derive_seed(base_seed, "curriculum", stage_index, "sarcastic"))
    if isinstance(stage, NonSarcasticDominated):
        n_sarcastic, n_non = stage.class_sizes()
        chosen = curriculum_subset(
            pool, False, n_non,
            derive_seed(base_seed, "curriculum", stage_index, "non-sarcastic"))
        chosen += curriculum_subset(
            pool, True, n_sarcastic,
            derive_seed(base_seed, "curriculum", stage_index, "sarcastic"))
        return chosen
    if isinstance(stage, Main):
        return list(pool)
    raise ValueError(f"unknown stage type: {type(stage).__name__}")


def _staged_vectors(split: DatasetSplit, config: TrainConfig,
                   pipeline: FeaturePipeline) -> list:
    """The (name, [(vector, class)]) stages ``train_on_vectors`` takes.

    Curriculum stages draw from the split's train side only, so the test
    side never leaks into any stage. Each distinct review text is
    vectorized once, however many stages include it.
    """
    pool = list(split.train)
    vectors = {}

    def vector(text):
        if text not in vectors:
            vectors[text] = pipeline.vector(text)
        return vectors[text]

    staged = []
    for index, stage in enumerate(config.stages):
        if isinstance(stage, Main):
            members = pool
        else:
            members = build_stage_pool(stage, pool, config.seed, index)
        staged.append((stage.name, [(vector(lr.review.text), 1 if lr.sarcastic else 0)
                                    for lr in members]))
    return staged


def train(split: DatasetSplit, config: TrainConfig, mlp_config: MlpConfig,
          pipeline: FeaturePipeline | None = None) -> tuple:
    """Train one star category's model on its split; returns (model, history)."""
    pipe = pipeline if pipeline is not None else FeaturePipeline()
    return train_on_vectors(_staged_vectors(split, config, pipe), config, mlp_config)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    accuracy: float


@dataclass(frozen=True)
class EvalResult:
    cm: ConfusionMatrix
    excluded: int = 0


def _test_vectors(test: list, pipeline: FeaturePipeline) -> tuple:
    """(vectors, classes, excluded) of the test reviews whose extraction succeeds."""
    vectors = []
    classes = []
    for lr in test:
        try:
            vectors.append(pipeline.vector(lr.review.text))
        except DataError:
            continue
        classes.append(1 if lr.sarcastic else 0)
    xs = np.array(vectors, dtype=float).reshape(len(vectors), INPUT_DIM)
    return xs, np.array(classes, dtype=int), len(test) - len(vectors)


def _tally(model: MlpModel, xs: np.ndarray, actual: np.ndarray,
           excluded: int) -> EvalResult:
    predicted = predicted_classes(forward(model, xs).p)

    def count(p, a):
        return int(np.sum((predicted == p) & (actual == a)))

    return EvalResult(ConfusionMatrix(tp=count(1, 1), fp=count(1, 0),
                                      fn=count(0, 1), tn=count(0, 0)), excluded)


def evaluate(model: MlpModel, test: list,
             pipeline: FeaturePipeline | None = None) -> EvalResult:
    """Tally a confusion matrix over labeled test reviews (sarcastic = positive).

    A review whose feature extraction raises DataError is excluded and
    counted, not fatal; any other error propagates. The model is never
    mutated.
    """
    pipe = pipeline if pipeline is not None else FeaturePipeline()
    return _tally(model, *_test_vectors(test, pipe))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def f1_score(precision: float, recall: float) -> float:
    return _ratio(2.0 * precision * recall, precision + recall)


def prf1(cm: ConfusionMatrix) -> ClassMetrics:
    """Precision/recall/F1/accuracy with the 0-for-0/0 convention."""
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    return ClassMetrics(
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        accuracy=_ratio(cm.tp + cm.tn, cm.total),
    )


def macro_average(per_star: list) -> tuple:
    """Unweighted means of P, R, F1 over exactly five per-star metric sets."""
    if len(per_star) != 5:
        raise ValueError(f"macro average needs exactly 5 entries, got {len(per_star)}")
    p = sum(m.precision for m in per_star) / 5.0
    r = sum(m.recall for m in per_star) / 5.0
    f1 = sum(m.f1 for m in per_star) / 5.0
    return p, r, f1


@dataclass(frozen=True)
class StarReport:
    stars: int
    cm: ConfusionMatrix
    metrics: ClassMetrics
    excluded: int


@dataclass(frozen=True)
class SweepResult:
    lr: float
    accuracy: float
    precision: float
    recall: float
    f1: float


def lr_sweep(split: DatasetSplit, config: TrainConfig, mlp_config: MlpConfig,
             pipeline: FeaturePipeline | None = None) -> list:
    """Train and evaluate once per grid learning rate, identical seeds.

    Stage selection does not depend on the learning rate, so the staged
    and test vectors are built once and shared by every grid point.
    Results are ranked best first: highest test accuracy, ties to the
    lower learning rate.
    """
    pipe = pipeline if pipeline is not None else FeaturePipeline()
    staged = _staged_vectors(split, config, pipe)
    test = _test_vectors(list(split.test), pipe)
    results = []
    for lr in config.lr_grid:
        model, _ = train_on_vectors(staged, replace(config, lr=lr), mlp_config)
        metrics = prf1(_tally(model, *test).cm)
        results.append(SweepResult(
            lr=lr,
            accuracy=metrics.accuracy,
            precision=metrics.precision,
            recall=metrics.recall,
            f1=metrics.f1,
        ))
    return sorted(results, key=lambda r: (-r.accuracy, r.lr))


def star_report(stars: int, outcome: EvalResult) -> StarReport:
    return StarReport(stars, outcome.cm, prf1(outcome.cm), outcome.excluded)


def render_metrics_table(reports: dict) -> str:
    """Format per-star metrics as an aligned text table.

    Rows are Precision/Recall/F1 plus an accuracy line; columns are the
    star ratings present in ``reports`` (a dict of stars -> StarReport).
    When all five stars are present, a macro-average line is appended.
    """
    stars = sorted(reports)
    header = ["Metric"] + [f"{s}-star" for s in stars]
    rows = [
        ["Precision"] + [f"{reports[s].metrics.precision:.2f}" for s in stars],
        ["Recall"] + [f"{reports[s].metrics.recall:.2f}" for s in stars],
        ["F1"] + [f"{reports[s].metrics.f1:.2f}" for s in stars],
        ["Accuracy"] + [f"{reports[s].metrics.accuracy:.2f}" for s in stars],
    ]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    lines = []
    for row in [header] + rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    if len(stars) == 5:
        p, r, f1 = macro_average([reports[s].metrics for s in stars])
        lines.append("")
        lines.append(f"Macro averages: precision {p:.2f}, recall {r:.2f}, F1 {f1:.2f}")
    return "\n".join(lines) + "\n"


def render_sweep_table(results: list) -> str:
    header = f"{'lr':>10}  {'accuracy':>8}  {'precision':>9}  {'recall':>6}  {'f1':>6}"
    lines = [header]
    for r in results:
        lines.append(
            f"{r.lr:>10.6g}  {r.accuracy:>8.4f}  {r.precision:>9.4f}  "
            f"{r.recall:>6.4f}  {r.f1:>6.4f}")
    return "\n".join(lines) + "\n"


def report_to_dict(reports: dict, provenance: dict | None = None) -> dict:
    """Machine-readable eval report with full-precision values."""
    doc = {
        "per_star": {
            str(s): {
                "confusion": {
                    "tp": rep.cm.tp, "fp": rep.cm.fp,
                    "fn": rep.cm.fn, "tn": rep.cm.tn,
                },
                "precision": rep.metrics.precision,
                "recall": rep.metrics.recall,
                "f1": rep.metrics.f1,
                "accuracy": rep.metrics.accuracy,
                "excluded": rep.excluded,
            }
            for s, rep in sorted(reports.items())
        },
    }
    if len(reports) == 5:
        p, r, f1 = macro_average([reports[s].metrics for s in sorted(reports)])
        doc["macro"] = {"precision": p, "recall": r, "f1": f1}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def write_report(path, reports: dict, provenance: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(reports, provenance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_history(path, history: list, provenance: dict | None = None) -> None:
    """History file: optional provenance line, then one record per (stage, epoch)."""
    with open(path, "w", encoding="utf-8") as fh:
        if provenance is not None:
            fh.write(json.dumps({"provenance": provenance}, sort_keys=True) + "\n")
        for record in history:
            fh.write(json.dumps({
                "stage": record.stage,
                "epoch": record.epoch,
                "mean_loss": record.mean_loss,
                "train_accuracy": record.train_accuracy,
            }, sort_keys=True) + "\n")
