"""Train and evaluate one star category on the bundled mini-corpus.

Run from the repo root:

    python3 demos/03_minicorpus_training.py

The mini-corpus holds 100 labeled reviews per star, so the split and the
curriculum stage sizes here are the standard recipe scaled down by ten:
70/30 instead of 700/300, and warm-up stages of 15 and 16 instead of 500
and 500. Everything is seeded, so this script prints the same numbers on
every run.
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
    evaluate,
    iter_labels,
    label_reviews,
    make_split,
    open_jsonl,
    prf1,
    read_reviews,
    train,
)

CORPUS = Path(__file__).resolve().parents[1] / "data" / "minicorpus"
STARS = 3
SEED = 42


def main() -> None:
    reviews, _ = read_reviews(CORPUS / "reviews.jsonl")
    dropped = []  # one ParseError per invalid vote line
    with open_jsonl(CORPUS / "labels.jsonl") as lines:
        labeled = label_reviews(reviews, iter_labels(lines, dropped))
    pool = [lr for lr in labeled if lr.review.stars == STARS]
    print(f"{len(pool)} labeled {STARS}-star reviews, "
          f"{sum(lr.sarcastic for lr in pool)} sarcastic")

    split = make_split(pool, 70, 30, derive_seed(SEED, "split", STARS))
    config = TrainConfig(
        lr=0.01,
        epochs=10,
        batch_size=10,
        stages=(SarcasticOnly(15), NonSarcasticDominated(16, 3.0), Main()),
        seed=derive_seed(SEED, "train", STARS),
    )
    mlp_config = MlpConfig(hidden=(15, 15), keep_prob=0.75,
                           seed=derive_seed(SEED, "init", STARS))

    pipeline = FeaturePipeline()
    model, history = train(split, config, mlp_config, pipeline)

    print("\nstage-by-stage training accuracy:")
    for record in history:
        print(f"  {record.stage:<24} epoch {record.epoch:>2}  "
              f"loss {record.mean_loss:.4f}  acc {record.train_accuracy:.3f}")

    outcome = evaluate(model, list(split.test), pipeline)
    metrics = prf1(outcome.cm)
    print(f"\ntest confusion: tp={outcome.cm.tp} fp={outcome.cm.fp} "
          f"fn={outcome.cm.fn} tn={outcome.cm.tn}")
    print(f"precision {metrics.precision:.2f}  recall {metrics.recall:.2f}  "
          f"F1 {metrics.f1:.2f}  accuracy {metrics.accuracy:.2f}")


if __name__ == "__main__":
    main()
