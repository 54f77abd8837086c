"""Show which surface cues each review sentence hits, feature by feature.

Run from the repo root:

    python3 demos/01_feature_hits.py

One regex scan cuts the text into words (with apostrophes intact),
punctuation runs made of ! and ?, and ellipses; everything else
separates tokens. Each word is then looked up once in the lexicons and
checked for laughter, shouting and elongation. The raw counts printed
here are what the 15-entry vector divides by the word count.
"""

from sarcnet import FeaturePipeline, catalog

SENTENCES = [
    "Haha! I'm trying to imagine you with a personality!!",
    "God! Aren't we clever??",
    "Sooooo impressive... truly the BEST salad in town?!",
    "The soup was warm and the server was polite.",
]


def show(pipeline: FeaturePipeline, text: str) -> None:
    counts = pipeline.counts(text)
    print(f"\n{text!r}  (words: {counts.word_count})")
    hits = [(d, getattr(counts, d.id)) for d in catalog() if getattr(counts, d.id)]
    for descriptor, count in hits:
        print(f"  {descriptor.id:>3}  {descriptor.name:<24} {count}  "
              f"({descriptor.definition})")
    if not hits:
        print("  no cue hit")


def main() -> None:
    pipeline = FeaturePipeline()
    for sentence in SENTENCES:
        show(pipeline, sentence)
    print("\nOnly surface cues are counted: laughter and lexicon words, runs")
    print("of ! and ?, ellipses, and all-caps or stretched words. The polite")
    print("last sentence hits nothing but the positive-word list.")


if __name__ == "__main__":
    main()
