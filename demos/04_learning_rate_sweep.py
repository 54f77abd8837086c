"""Rank candidate learning rates on one star of the mini-corpus.

Run from the repo root:

    python3 demos/04_learning_rate_sweep.py

Every grid point trains with identical seeds and data, so the table
isolates the learning rate's effect. Ties on accuracy rank the smaller
rate first, preferring the more conservative optimizer setting.
"""

from pathlib import Path

from sarcnet import (
    FeaturePipeline,
    Main,
    MlpConfig,
    NonSarcasticDominated,
    SarcasticOnly,
    TrainConfig,
    derive_seed,
    iter_labels,
    label_reviews,
    load_lexicons,
    lr_sweep,
    make_split,
    open_jsonl,
    read_reviews,
    render_sweep_table,
)

CORPUS = Path(__file__).resolve().parents[1] / "data" / "minicorpus"
STARS = 1
SEED = 42


def main() -> None:
    reviews, _ = read_reviews(CORPUS / "reviews.jsonl")
    dropped = []  # one ParseError per invalid vote line
    with open_jsonl(CORPUS / "labels.jsonl") as lines:
        labeled = label_reviews(reviews, iter_labels(lines, dropped))
    pool = [lr for lr in labeled if lr.review.stars == STARS]
    split = make_split(pool, 70, 30, derive_seed(SEED, "split", STARS))

    config = TrainConfig(
        epochs=10,
        batch_size=10,
        stages=(SarcasticOnly(15), NonSarcasticDominated(16, 3.0), Main()),
        lr_grid=(1e-4, 1e-3, 1e-2),
        seed=derive_seed(SEED, "train", STARS),
    )
    mlp_config = MlpConfig(hidden=(15, 15), keep_prob=0.75,
                           seed=derive_seed(SEED, "init", STARS))

    results = lr_sweep(split, config, mlp_config, FeaturePipeline(load_lexicons()))
    print(f"learning-rate sweep, {STARS}-star reviews, 70/30 split:\n")
    print(render_sweep_table(results), end="")
    print(f"\nbest by test accuracy: lr={results[0][0]:g}")


if __name__ == "__main__":
    main()
