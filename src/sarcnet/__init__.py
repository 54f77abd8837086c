"""Sarcasm detection for star-rated review text.

The pipeline: parse reviews and annotator votes, extract a
15-component lexical/punctuation/orthographic feature vector per
review, train a small from-scratch feed-forward network per star rating
with curriculum stages, and report per-star precision/recall/F1.

Typical use:

    from sarcnet import FeaturePipeline, MlpConfig, TrainConfig, train

See the README for the command-line interface and file formats.

The public names are loaded on first use (PEP 562): ``import sarcnet``
imports no submodule, and ``sarcnet.train`` imports ``sarcnet.training``
(and with it numpy) only when it is first looked up. So a program that
reads only the corpus never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_MODULE_EXPORTS = {
    "corpus": (
        "DatasetSplit", "LabeledReview", "ParseError", "Review", "SarcasmLabel",
        "derive_seed", "iter_labels", "label_reviews", "make_split", "open_jsonl",
        "parse_review_stream", "read_reviews", "resolve_labels",
    ),
    "errors": ("DataError", "SarcnetError", "TrainingDivergence"),
    "features": (
        "FeatureCounts", "FeatureDescriptor", "FeatureKind", "FeaturePipeline",
        "catalog", "extract_counts", "feature_names", "normalize",
    ),
    "lexicons": ("Lexicons", "load_lexicons"),
    "network": (
        "AdamState", "ForwardTrace", "MlpConfig", "MlpModel",
        "adam_step", "backward", "cross_entropy", "forward", "init_adam_state",
        "init_model", "load_model", "predict", "predict_batch", "save_model", "softmax",
    ),
    "text": ("tokenize",),
    "training": (
        "ClassMetrics", "ConfusionMatrix", "EvalResult", "HistoryRecord", "Main",
        "NonSarcasticDominated", "SarcasticOnly", "TrainConfig",
        "evaluate", "f1_score", "lr_sweep", "macro_average", "prf1",
        "render_metrics_table", "render_sweep_table", "report_to_dict", "train",
        "train_on_vectors", "write_history", "write_report",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Looked up afresh on every access and never bound here, so a function
    # replaced in its submodule (a test's monkeypatch, a tracer) is what
    # ``sarcnet.<name>`` returns too, and nothing outlives its restore.
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
