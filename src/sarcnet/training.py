"""Curriculum-staged training, learning-rate sweeps, and per-star evaluation.

Training runs an ordered list of stages. The default curriculum warms the
network up on class-skewed subsets before the real split: first an
all-sarcastic stage, then a non-sarcastic-dominated stage, then the main
train set. Each stage shuffles its examples once with a stage seed,
partitions them into fixed minibatches (a trailing short batch is kept),
and takes one Adam step per batch on the mean cross-entropy gradient at
a constant learning rate. Every stage starts from fresh Adam moments.

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

import json
import math
import random
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .corpus import DatasetSplit, derive_seed
from .errors import DataError, TrainingDivergence
from .features import FeaturePipeline
from .network import (
    INPUT_DIM,
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


@dataclass(frozen=True)
class SarcasticOnly:
    """Warm-up stage: n purely sarcastic reviews."""
    n: int = 500
    name: str = field(default="sarcastic_only", init=False)

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"{self.name} stage size must be at least 1, got {self.n}")

    def class_sizes(self) -> tuple:
        return self.n, 0  # (sarcastic, non-sarcastic)


@dataclass(frozen=True)
class NonSarcasticDominated:
    """Counter-balance stage: n reviews at ratio non-sarcastic per sarcastic."""
    n: int = 500
    ratio: float = 3.0
    name: str = field(default="non_sarcastic_dominated", init=False)

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"{self.name} stage size must be at least 1, got {self.n}")
        if not 0.0 < self.ratio < math.inf:
            raise ValueError(
                f"{self.name} stage ratio must be positive and finite, got {self.ratio}")

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

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "lr_grid", tuple(float(v) for v in self.lr_grid))
        for rate in (self.lr, *self.lr_grid):
            if not 0.0 < rate < math.inf:
                raise ValueError(f"lr must be positive and finite, got {rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not self.stages:
            raise ValueError("stages must be non-empty")
        if not self.lr_grid:
            raise ValueError("lr_grid must be non-empty")
        for low, high in zip(self.lr_grid, self.lr_grid[1:]):
            if not low < high:
                raise ValueError(
                    f"lr_grid must be strictly ascending, got {high!r} after {low!r}")


@dataclass(frozen=True)
class HistoryRecord:
    stage: str
    epoch: int
    mean_loss: float
    train_accuracy: float


def _run_stage(model: MlpModel, examples: list, config: TrainConfig,
               stage_name: str, stage_seed: int, history: list) -> MlpModel:
    """Run all epochs of one stage from fresh Adam moments; returns the model."""
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
    x_shuffled, y_shuffled = xs[order], ys[order]
    dropout_rng = np.random.default_rng(derive_seed(stage_seed, "dropout"))
    state = init_adam_state(model)
    for epoch in range(1, config.epochs + 1):
        loss_sum = 0.0
        starts = range(0, len(order), config.batch_size)
        for batch_index, start in enumerate(starts, start=1):
            x_batch = x_shuffled[start:start + config.batch_size]
            y_batch = y_shuffled[start:start + config.batch_size]
            trace = forward(model, x_batch, mode="train", rng=dropout_rng)
            batch_loss = cross_entropy(trace.p, y_batch)
            if not math.isfinite(batch_loss):
                raise TrainingDivergence(
                    f"non-finite loss in stage {stage_name!r}, "
                    f"epoch {epoch}, batch {batch_index}")
            grads = backward(model, trace, y_batch)
            # backward returns a fresh vector, so it is scaled to the mean in place.
            grads.params[...] *= 1.0 / len(y_batch)
            model, state = adam_step(model, grads, state, config.lr)
            loss_sum += batch_loss
        p = forward(model, xs).p
        if not np.isfinite(p).all():
            raise TrainingDivergence(
                f"non-finite output in stage {stage_name!r}, epoch {epoch}")
        correct = int(np.sum(predicted_classes(p) == ys))
        history.append(HistoryRecord(
            stage=stage_name,
            epoch=epoch,
            mean_loss=loss_sum / len(order),
            train_accuracy=correct / len(order),
        ))
    return model


def train_on_vectors(staged_examples: list, config: TrainConfig,
                     mlp_config: MlpConfig) -> tuple:
    """Train over prepared stages of (name, [(vector, class)]) pairs.

    Returns (model, history). This is the core loop; ``train`` wraps it
    with review vectorization and curriculum subset selection.

    Overflow in a diverging run is left to the loss, gradient and output
    checks, which raise TrainingDivergence, so numpy prints no warnings first.
    """
    model = init_model(mlp_config)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for index, (stage_name, examples) in enumerate(staged_examples):
            stage_seed = derive_seed(config.seed, "stage", index, stage_name)
            model = _run_stage(model, examples, config, stage_name, stage_seed, history)
    return model, history


def build_stage_pool(stage, split: DatasetSplit, base_seed: int, stage_index: int) -> list:
    """Select the labeled reviews one curriculum stage trains on.

    Every stage draws from the split's train side only, so the test side
    never leaks into training. ``main`` takes the train side as it is. A
    warm-up stage takes its non-sarcastic reviews, if any, then its
    sarcastic ones, each class by its own seeded permutation (salted with
    the 0-based ``stage_index``). A class the train side holds too few of
    is a DataError that names the star, the stage (1-based), the class,
    and how many reviews it needs and has; when both classes are short,
    the sarcastic one is named.
    """
    if isinstance(stage, Main):
        return list(split.train)
    if not isinstance(stage, (SarcasticOnly, NonSarcasticDominated)):
        raise ValueError(f"unknown stage type: {type(stage).__name__}")
    n_sarcastic, n_non = stage.class_sizes()
    chosen = []
    for sarcastic, n, kind in ((True, n_sarcastic, "sarcastic"),
                               (False, n_non, "non-sarcastic")):
        if not n:
            continue
        matching = [lr for lr in split.train if lr.sarcastic == sarcastic]
        if len(matching) < n:
            raise DataError(
                f"{split.stars}-star stage {stage_index + 1} ({stage.name}) needs "
                f"{n} {kind} reviews, the train side has {len(matching)}")
        random.Random(derive_seed(base_seed, "curriculum", stage_index, kind)).shuffle(matching)
        chosen = matching[:n] + chosen  # the non-sarcastic reviews come first
    return chosen


def _staged_vectors(split: DatasetSplit, config: TrainConfig,
                   pipeline: FeaturePipeline) -> list:
    """The (name, [(vector, class)]) stages ``train_on_vectors`` takes.

    Each distinct review text is vectorized once, however many stages
    include it.
    """
    vectors = {}

    def vector(text):
        if text not in vectors:
            vectors[text] = pipeline.vector(text)
        return vectors[text]

    staged = []
    for index, stage in enumerate(config.stages):
        members = build_stage_pool(stage, split, config.seed, index)
        staged.append((stage.name, [(vector(lr.review.text), 1 if lr.sarcastic else 0)
                                    for lr in members]))
    return staged


def train(split: DatasetSplit, config: TrainConfig, mlp_config: MlpConfig,
          pipeline: FeaturePipeline | None = None) -> tuple:
    """Train one star category's model on its split; returns (model, history).

    A TrainingDivergence names the star: ``N-star model: <reason>``.
    """
    pipe = pipeline if pipeline is not None else FeaturePipeline()
    staged = _staged_vectors(split, config, pipe)
    try:
        return train_on_vectors(staged, config, mlp_config)
    except TrainingDivergence as exc:
        raise TrainingDivergence(f"{split.stars}-star model: {exc}") from exc


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
    # Always 0, read only by report.json's "excluded" key and perfbench's _count_excluded
    excluded: int = 0


def _test_vectors(test: list, pipeline: FeaturePipeline) -> tuple:
    """(vectors, classes) of the test reviews."""
    xs = np.array([pipeline.vector(lr.review.text) for lr in test], dtype=float)
    return (xs.reshape(len(test), INPUT_DIM),
            np.array([1 if lr.sarcastic else 0 for lr in test], dtype=int))


def _tally(model: MlpModel, xs: np.ndarray, actual: np.ndarray) -> ConfusionMatrix:
    predicted = predicted_classes(forward(model, xs).p)

    def count(p, a):
        return int(np.sum((predicted == p) & (actual == a)))

    return ConfusionMatrix(tp=count(1, 1), fp=count(1, 0), fn=count(0, 1), tn=count(0, 0))


def evaluate(model: MlpModel, test: list,
             pipeline: FeaturePipeline | None = None) -> EvalResult:
    """Tally a confusion matrix over labeled test reviews (sarcastic = positive).

    Every error of the feature pipeline propagates. The model is never
    mutated.
    """
    pipe = pipeline if pipeline is not None else FeaturePipeline()
    return EvalResult(_tally(model, *_test_vectors(test, pipe)))


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
        metrics = prf1(_tally(model, *test))
        results.append(SweepResult(
            lr=lr,
            accuracy=metrics.accuracy,
            precision=metrics.precision,
            recall=metrics.recall,
            f1=metrics.f1,
        ))
    return sorted(results, key=lambda r: (-r.accuracy, r.lr))


def render_metrics_table(reports: dict) -> str:
    """Format per-star metrics as an aligned text table.

    Rows are Precision/Recall/F1 plus an accuracy line; columns are the
    star ratings present in ``reports`` (a dict of stars -> EvalResult).
    When all five stars are present, a macro-average line is appended.
    """
    stars = sorted(reports)
    metrics = [prf1(reports[s].cm) for s in stars]
    header = ["Metric"] + [f"{s}-star" for s in stars]
    rows = [
        ["Precision"] + [f"{m.precision:.2f}" for m in metrics],
        ["Recall"] + [f"{m.recall:.2f}" for m in metrics],
        ["F1"] + [f"{m.f1:.2f}" for m in metrics],
        ["Accuracy"] + [f"{m.accuracy:.2f}" for m in metrics],
    ]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    lines = []
    for row in [header] + rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    if len(stars) == 5:
        p, r, f1 = macro_average(metrics)
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
    """Machine-readable eval report of stars -> EvalResult, full precision."""
    metrics = {s: prf1(rep.cm) for s, rep in sorted(reports.items())}
    doc = {
        "per_star": {
            # confusion: tp, fp, fn, tn; then precision, recall, f1, accuracy
            str(s): {"confusion": asdict(reports[s].cm), **asdict(m),
                     "excluded": reports[s].excluded}
            for s, m in metrics.items()
        },
    }
    if len(reports) == 5:
        p, r, f1 = macro_average(list(metrics.values()))
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
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
