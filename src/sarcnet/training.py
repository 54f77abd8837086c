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

Networks that share a shape and a curriculum train side by side as one
stack: the stars of the train command, or the rates of a sweep. Each
minibatch is one stacked network call, and each member's bits equal
those of its lone run. Each review is vectorized once per run, a block of
reviews at a time, and each member's accuracy pass and each evaluation is
one batched network call.

Evaluation is read-only: the test reviews run through the feature
pipeline and one forward pass without dropout, tallying a confusion
matrix with the sarcastic class as positive. Metrics use the 0-for-0/0
convention so degenerate classifiers still produce a report.
"""

import json
import math
import random
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .corpus import DatasetSplit, _write_json, derive_seed
from .errors import DataError, TrainingDivergence
from .features import FeaturePipeline
from .network import (
    INPUT_DIM,
    PARAM_LIMIT,
    MlpConfig,
    MlpModel,
    _nonfinite_block,
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


def _train_stack(xs: np.ndarray, ys: np.ndarray, stages: list, configs: list,
                 mlp_configs: list, labels: list) -> list:
    """Train S networks in one loop; returns each member's (model, history).

    Member s trains at ``configs[s].lr`` from ``init_model(mlp_configs[s])``.
    xs (D, N, 15) and ys (D, N) hold D data members; each stage is (name, the
    (D, n) rows it draws). D is S for a stack of stars, or 1 for a stack of
    rates, which share the data, shuffle, dropout stream and initial model.
    Each member runs a lone run's checks in order (loss, gradient, output,
    PARAM_LIMIT) and stops counting at its first failure. The run raises
    ``labels[s]`` and the first failure of the first failed member s, once
    no earlier member trains on. Overflow is left to those checks, so numpy
    prints no warnings first.
    """
    config, n_data = configs[0], len(xs)
    for name, rows in stages:
        if not rows.shape[1]:
            raise DataError(f"stage {name!r} has no examples")
        if config.batch_size > rows.shape[1]:
            raise DataError(
                f"batch size {config.batch_size} exceeds stage size {rows.shape[1]}")
    inits = {c: init_model(c).params for c in mlp_configs}
    model = MlpModel(mlp_configs[0], np.array([inits[c] for c in mlp_configs]))
    lr = np.array([[c.lr] for c in configs])
    histories = [[] for _ in configs]
    failures = [None] * len(configs)

    def fail(member, reason):
        failures[member] = failures[member] or labels[member] + reason
        if failures[0]:
            raise TrainingDivergence(failures[0])

    data = np.arange(n_data)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for index, (name, rows) in enumerate(stages):
            seeds = [derive_seed(c.seed, "stage", index, name) for c in configs[:n_data]]
            # Shuffling row indices gives the same permutation as shuffling the examples.
            shuffled = rows.copy()
            for member_rows, seed in zip(shuffled, seeds):
                random.Random(seed).shuffle(member_rows)
            rngs = [np.random.default_rng(derive_seed(seed, "dropout")) for seed in seeds]
            state = init_adam_state(model)
            for epoch in range(1, config.epochs + 1):
                loss_sum = np.zeros(len(configs))
                starts = range(0, rows.shape[1], config.batch_size)
                for batch_index, start in enumerate(starts, start=1):
                    batch = shuffled[:, start:start + config.batch_size]
                    trace = forward(model, xs[data, batch], rngs)
                    y_batch = np.broadcast_to(ys[data, batch], trace.p.shape[:-1])
                    losses = cross_entropy(trace.p, y_batch)
                    for member in np.flatnonzero(~np.isfinite(losses)):
                        fail(member, f"non-finite loss in stage {name!r}, "
                                     f"epoch {epoch}, batch {batch_index}")
                    grads = backward(model, trace, y_batch)
                    # backward returns a fresh array, so it is scaled to the mean in place.
                    grads.params[...] *= 1.0 / batch.shape[1]
                    for member in np.flatnonzero(~np.isfinite(grads.params).all(axis=1)):
                        block = _nonfinite_block(model.config, grads.params[member])
                        fail(member, f"non-finite gradient in {block}")
                        grads.params[member] = 0.0  # so that the others step
                    model, state = adam_step(model, grads, state, lr)
                    del trace, grads  # freed before the next batch's are made
                    loss_sum += losses
                # One member at a time, so that one member's activations are held.
                for member, params in enumerate(model.params):
                    if failures[member]:
                        continue
                    own = member % n_data, rows[member % n_data]
                    p = forward(MlpModel(model.config, params), xs[own]).p
                    if not np.isfinite(p).all():
                        fail(member, f"non-finite output in stage {name!r}, epoch {epoch}")
                    elif not (np.abs(params) <= PARAM_LIMIT).all():
                        fail(member, f"parameters beyond {PARAM_LIMIT:g} "
                                     f"in stage {name!r}, epoch {epoch}")
                    else:
                        correct = int(np.sum(predicted_classes(p) == ys[own]))
                        histories[member].append(HistoryRecord(
                            name, epoch, float(loss_sum[member]) / rows.shape[1],
                            correct / rows.shape[1]))
    failure = next(filter(None, failures), None)
    if failure:
        raise TrainingDivergence(failure)
    return [(MlpModel(c, params), history)
            for c, params, history in zip(mlp_configs, model.params, histories)]


def train_on_vectors(staged_examples: list, config: TrainConfig,
                     mlp_config: MlpConfig) -> tuple:
    """Train over prepared stages of (name, [(vector, class)]) pairs.

    Returns (model, history): the one-member stack of ``train`` and ``lr_sweep``.
    """
    examples = [example for _, stage in staged_examples for example in stage]
    xs = np.array([[x for x, _ in examples]], dtype=float).reshape(1, -1, INPUT_DIM)
    ends = np.cumsum([len(stage) for _, stage in staged_examples], dtype=np.intp)
    stages = [(name, np.arange(end - len(stage), end)[None])
              for (name, stage), end in zip(staged_examples, ends)]
    ((model, history),) = _train_stack(xs, np.array([[y for _, y in examples]]), stages,
                                       [config], [mlp_config], [""])
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


def _stack_inputs(splits: list, configs: list, pipeline: FeaturePipeline) -> tuple:
    """(xs, ys, stages) of ``_train_stack``, one data member per split's train side.

    Every member's stage pools are drawn before any review is vectorized, so
    a shortage anywhere stops the run before any work. Each review that a
    split's stages draw is vectorized once, in one block per split, in the
    order the stages first draw it.
    """
    pools = []
    for split, config in zip(splits, configs):
        row = {id(lr): i for i, lr in enumerate(split.train)}
        pools.append([np.array([row[id(lr)] for lr in build_stage_pool(stage, split, config.seed,
                                                                       index)], dtype=np.intp)
                      for index, stage in enumerate(config.stages)])
    assert len({tuple(map(len, pool)) for pool in pools}) == 1, "stage sizes differ"
    xs = np.zeros((len(splits), len(splits[0].train), INPUT_DIM))
    for member, (split, pool) in enumerate(zip(splits, pools)):
        drawn = list(dict.fromkeys(np.concatenate(pool).tolist()))
        xs[member, drawn] = pipeline.matrix([split.train[i].review.text for i in drawn])
    ys = np.array([[lr.sarcastic for lr in split.train] for split in splits], dtype=int)
    return xs, ys.reshape(len(splits), -1), [
        (stage.name, np.stack([pool[index] for pool in pools]))
        for index, stage in enumerate(configs[0].stages)]


def _train_stars(splits: dict, configs: dict, pipeline: FeaturePipeline) -> dict:
    """Train every star's model on its split, as one stack; stars -> (model, history).

    configs maps each star to its (TrainConfig, MlpConfig); they differ only
    in their seeds. A TrainingDivergence names the first failed star in the
    order of ``splits``: ``N-star model: <reason>``.
    """
    train_configs, mlp_configs = zip(*(configs[stars] for stars in splits))
    xs, ys, stages = _stack_inputs(list(splits.values()), train_configs, pipeline)
    trained = _train_stack(xs, ys, stages, train_configs, mlp_configs,
                           [f"{stars}-star model: " for stars in splits])
    return dict(zip(splits, trained))


def train(split: DatasetSplit, config: TrainConfig, mlp_config: MlpConfig,
          pipeline: FeaturePipeline) -> tuple:
    """Train one star category's model on its split; returns (model, history).

    A TrainingDivergence names the star: ``N-star model: <reason>``.
    """
    return _train_stars({split.stars: split}, {split.stars: (config, mlp_config)},
                        pipeline)[split.stars]


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
    """(vectors, classes) of the test reviews, vectorized as one block."""
    return (pipeline.matrix([lr.review.text for lr in test]),
            np.array([1 if lr.sarcastic else 0 for lr in test], dtype=int))


def _tally(model: MlpModel, xs: np.ndarray, actual: np.ndarray) -> ConfusionMatrix:
    predicted = predicted_classes(forward(model, xs).p)

    def count(p, a):
        return int(np.sum((predicted == p) & (actual == a)))

    return ConfusionMatrix(tp=count(1, 1), fp=count(1, 0), fn=count(0, 1), tn=count(0, 0))


def evaluate(model: MlpModel, test: list, pipeline: FeaturePipeline) -> EvalResult:
    """Tally a confusion matrix over labeled test reviews (sarcastic = positive).

    Every error of the feature pipeline propagates. The model is never
    mutated.
    """
    return EvalResult(_tally(model, *_test_vectors(test, pipeline)))


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


def lr_sweep(split: DatasetSplit, config: TrainConfig, mlp_config: MlpConfig,
             pipeline: FeaturePipeline) -> list:
    """Train every grid learning rate as one stack, identical seeds, and evaluate each.

    The rates share everything else: the stages, shuffles, dropout streams
    and initial model are drawn once, and the staged and test vectors are
    built once. Returns (lr, ClassMetrics) pairs ranked best first: highest
    test accuracy, ties to the lower learning rate. A TrainingDivergence
    names the star and the first failed rate in grid order:
    ``N-star model, lr R: <reason>``.
    """
    xs, ys, stages = _stack_inputs([split], [config], pipeline)
    test = _test_vectors(list(split.test), pipeline)
    trained = _train_stack(xs, ys, stages, [replace(config, lr=lr) for lr in config.lr_grid],
                           [mlp_config] * len(config.lr_grid),
                           [f"{split.stars}-star model, lr {lr:g}: " for lr in config.lr_grid])
    results = [(lr, prf1(_tally(model, *test)))
               for lr, (model, _) in zip(config.lr_grid, trained)]
    return sorted(results, key=lambda pair: (-pair[1].accuracy, pair[0]))


def render_metrics_table(reports: dict) -> str:
    """Format per-star metrics as an aligned text table.

    Rows are Precision/Recall/F1 plus an accuracy line; columns are the
    star ratings present in ``reports`` (a dict of stars -> EvalResult).
    Stars are 1-5 and every metric is a ratio in [0, 1], so the label
    column is 9 wide and each star column 6. When all five stars are
    present, a macro-average line is appended.
    """
    stars = sorted(reports)
    metrics = [prf1(reports[s].cm) for s in stars]
    rows = [
        ["Metric"] + [f"{s}-star" for s in stars],
        ["Precision"] + [f"{m.precision:.2f}" for m in metrics],
        ["Recall"] + [f"{m.recall:.2f}" for m in metrics],
        ["F1"] + [f"{m.f1:.2f}" for m in metrics],
        ["Accuracy"] + [f"{m.accuracy:.2f}" for m in metrics],
    ]
    lines = [(f"{label:<9}" + "".join(f"  {cell:>6}" for cell in cells)).rstrip()
             for label, *cells in rows]
    if len(stars) == 5:
        p, r, f1 = macro_average(metrics)
        lines.append("")
        lines.append(f"Macro averages: precision {p:.2f}, recall {r:.2f}, F1 {f1:.2f}")
    return "\n".join(lines) + "\n"


def render_sweep_table(results: list) -> str:
    header = f"{'lr':>10}  {'accuracy':>8}  {'precision':>9}  {'recall':>6}  {'f1':>6}"
    lines = [header]
    for lr, m in results:
        lines.append(
            f"{lr:>10.6g}  {m.accuracy:>8.4f}  {m.precision:>9.4f}  "
            f"{m.recall:>6.4f}  {m.f1:>6.4f}")
    return "\n".join(lines) + "\n"


def report_to_dict(reports: dict) -> dict:
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
    return doc


def write_report(path, reports: dict, provenance: dict) -> None:
    _write_json(path, report_to_dict(reports), provenance)


def write_history(path, history: list, provenance: dict) -> None:
    """History file: the provenance line, then one record per (stage, epoch)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": provenance}, sort_keys=True) + "\n")
        for record in history:
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
