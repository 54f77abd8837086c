"""Seeded synthetic mini-corpus so the whole pipeline runs out of the box.

The generator writes 100 reviews per star rating (50 sarcastic, 50 not,
shuffled within each star) plus four annotators' votes. Sarcastic texts
are built from templates carrying the markers the feature catalog looks
for: interjection or invocation openers, heavy punctuation, elongated
words, person references. No review holds an all-caps word: two
templates spell one in capitals, but ``str.capitalize`` lowercases the
whole body, so the all-caps feature (f12) is 0 on every generated
review. Non-sarcastic texts are plain descriptive sentences. One
annotator dissents on a random 15% of reviews, so vote resolution is
exercised, but the majority always equals the generating truth.

Everything is driven by one fixed seed, so the committed corpus under
``data/minicorpus/`` can be regenerated byte-for-byte:

    python -m sarcnet.minicorpus data/minicorpus
"""

import random
import sys
from pathlib import Path

from .corpus import Review, SarcasmLabel, write_labels, write_reviews

GENERATOR_SEED = 613433
PER_STAR_PER_CLASS = 50
ANNOTATORS = ("annotator_1", "annotator_2", "annotator_3", "annotator_4")
DISSENT_RATE = 0.15

_ITEMS = (
    "pasta", "coffee", "burger", "soup", "salad",
    "dessert", "patio", "service", "parking", "wifi",
)

_PRAISE = ("fresh", "warm", "tasty", "quick", "friendly", "clean", "generous")
_COMPLAINTS = ("cold", "slow", "stale", "noisy", "rude", "greasy", "bland")

_SARC_OPENERS = ("Wow", "Haha", "Hahaha", "Oh wow", "God", "Gosh", "Geez", "Yay")

_SARC_BODIES = (
    "waiting forty minutes for the {item} was exactly what we wanted",
    "the {item} was sooooo {praise}, I could barely contain myself",
    "you really outdid yourselves with that {complaint} {item}",
    "because everyone loves {complaint} {item}, right",
    "truly the most {praise} {item} of my entire life",
    "I'm sure the {item} is GREAT when it actually arrives",
    "nothing says quality like {complaint} {item}",
    "your {item} changed my life, please take all our money",
    "what a steal, only an hour in line for the {item}",
    "the {item} here is AMAZING if you enjoy {complaint} surprises",
)

_SARC_CLOSERS = ("!!", "!!!", "??", "?!", "...", "!?")

_PLAIN_BODIES = (
    "The {item} was {quality} and the server was polite",
    "We stopped by for the {item} and it came out {quality}",
    "Decent {item} for the price, nothing special",
    "The {item} was {quality} but the room felt crowded",
    "Ordered the {item} twice this month, consistently {quality}",
    "The {item} arrived {quality} and the bill was fair",
    "A reliable spot, the {item} is usually {quality}",
    "The {item} could improve, though the staff tried hard",
    "Came in on a weekday, the {item} was {quality}",
    "The {item} was {quality}, I would consider coming back",
)


def _sarcastic_text(rng: random.Random) -> str:
    opener = rng.choice(_SARC_OPENERS)
    body = rng.choice(_SARC_BODIES).format(
        item=rng.choice(_ITEMS),
        praise=rng.choice(_PRAISE),
        complaint=rng.choice(_COMPLAINTS),
    )
    opener_punct = rng.choice(("!", "!!"))
    return f"{opener}{opener_punct} {body.capitalize()}{rng.choice(_SARC_CLOSERS)}"


def _plain_text(rng: random.Random, stars: int) -> str:
    if stars <= 2:
        quality = rng.choice(_COMPLAINTS)
    elif stars >= 4:
        quality = rng.choice(_PRAISE)
    else:
        quality = rng.choice(_PRAISE + _COMPLAINTS)
    body = rng.choice(_PLAIN_BODIES).format(item=rng.choice(_ITEMS), quality=quality)
    ending = "!" if rng.random() < 0.1 else "."
    return f"{body}{ending}"


def build_minicorpus(seed: int = GENERATOR_SEED,
                     per_star_per_class: int = PER_STAR_PER_CLASS) -> tuple:
    """Generate (reviews, truth_by_id, labels) deterministically."""
    rng = random.Random(seed)
    reviews = []
    truth = {}
    labels = []
    for stars in (1, 2, 3, 4, 5):
        entries = [(True, _sarcastic_text(rng)) for _ in range(per_star_per_class)]
        entries += [(False, _plain_text(rng, stars)) for _ in range(per_star_per_class)]
        rng.shuffle(entries)
        for index, (sarcastic, text) in enumerate(entries):
            review_id = f"mc-{stars}s-{index:03d}"
            reviews.append(Review(review_id, stars, text))
            truth[review_id] = sarcastic
            votes = [sarcastic] * len(ANNOTATORS)
            if rng.random() < DISSENT_RATE:
                votes[rng.randrange(len(ANNOTATORS))] = not sarcastic
            for annotator, vote in zip(ANNOTATORS, votes):
                labels.append(SarcasmLabel(review_id, vote, annotator))
    return reviews, truth, labels


def write_minicorpus(out_dir, seed: int = GENERATOR_SEED,
                     per_star_per_class: int = PER_STAR_PER_CLASS) -> tuple:
    """Write reviews.jsonl and labels.jsonl under out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reviews, _, labels = build_minicorpus(seed, per_star_per_class)
    reviews_path = out / "reviews.jsonl"
    labels_path = out / "labels.jsonl"
    write_reviews(reviews_path, reviews)
    write_labels(labels_path, labels)
    return reviews_path, labels_path


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    out_dir = args[0] if args else "data/minicorpus"
    reviews_path, labels_path = write_minicorpus(out_dir)
    print(f"wrote {reviews_path} and {labels_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
