"""Seeded inputs for the benchmark workloads.

Every input derives from the workload seed through
``sarcnet.minicorpus.build_minicorpus``. The benchmark writes the JSONL
files with its own serializer, so two commits under comparison read the
same bytes even if the program's own writers change; the sha256 of each
file is recorded so that can be confirmed.
"""

import hashlib
import json
import random
from pathlib import Path

PAPER_PER_CLASS = 600        # 6,000 reviews, 24,000 votes
LARGE_PER_CLASS = 6000       # 60,000 reviews, 240,000 votes
PREDICT_LINES = 4000
REVIEWS_PER_LINE = (1, 20)   # about 100 words per line, Yelp review length


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_corpus(out_dir, seed: int, per_class: int) -> dict:
    """Write reviews.jsonl and labels.jsonl; return name -> path and counts."""
    from sarcnet.minicorpus import build_minicorpus

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reviews, _, labels = build_minicorpus(seed, per_class)
    paths = {"reviews": out / "reviews.jsonl", "labels": out / "labels.jsonl"}
    with open(paths["reviews"], "w", encoding="utf-8") as fh:
        for r in reviews:
            fh.write(json.dumps({"review_id": r.review_id, "stars": r.stars,
                                 "text": r.text}, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(json.dumps({"review_id": label.review_id,
                                 "sarcastic": label.sarcastic,
                                 "annotator": label.annotator},
                                ensure_ascii=False, sort_keys=True))
            fh.write("\n")
    return {"paths": paths, "reviews": len(reviews), "votes": len(labels),
            "stars_by_id": {r.review_id: r.stars for r in reviews}}


def write_predict_lines(path, seed: int, n_lines: int = PREDICT_LINES,
                        per_class: int = PAPER_PER_CLASS) -> int:
    """Write n distinct lines, each joining 1 to 20 generated reviews."""
    from sarcnet.minicorpus import build_minicorpus

    reviews, _, _ = build_minicorpus(seed, per_class)
    texts = [r.text for r in reviews]
    rng = random.Random(f"perfbench-predict-lines-{seed}")
    seen = set()
    lines = []
    while len(lines) < n_lines:
        line = " ".join(rng.choice(texts) for _ in range(rng.randint(*REVIEWS_PER_LINE)))
        if line not in seen:
            seen.add(line)
            lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)
