"""Correctness checks on the outputs of one CLI operation.

Each check returns a list of problems; an empty list means the output is
correct. Any problem makes the operation count as failed.
"""

import json
import re
from pathlib import Path

MIN_SCORE = 0.99  # the generated corpus is separable, so anything less is a defect
PREDICT_LINE = re.compile(r"(sarcastic|non-sarcastic) [01]\.\d{4}")


def check_exit(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def check_histories(out_dir) -> list:
    """Every history file's last epoch reaches MIN_SCORE train accuracy."""
    paths = sorted(Path(out_dir).glob("history-*.jsonl"))
    if not paths:
        return ["no history files"]
    problems = []
    for path in paths:
        try:
            last = json.loads(path.read_text(encoding="utf-8").splitlines()[-1])
            accuracy = last["train_accuracy"]
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable history ({exc})")
            continue
        if not accuracy >= MIN_SCORE:
            problems.append(f"{path.name}: final train accuracy {accuracy} < {MIN_SCORE}")
    return problems


def check_report(path) -> list:
    """The eval report's macro F1 reaches MIN_SCORE."""
    try:
        f1 = json.loads(Path(path).read_text(encoding="utf-8"))["macro"]["f1"]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable report ({exc})"]
    return [] if f1 >= MIN_SCORE else [f"macro F1 {f1} < {MIN_SCORE}"]


def check_sweep(stdout: bytes, grid_points: int) -> list:
    rows = stdout.decode("utf-8", "replace").splitlines()
    if len(rows) != grid_points + 1 or not rows[0].strip().startswith("lr"):
        return [f"sweep table has {len(rows)} lines, expected header + {grid_points}"]
    return []


def check_predict(stdout: bytes, expected_lines: int) -> list:
    """Exactly one `sarcastic|non-sarcastic <conf>` line per non-blank input line."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) != expected_lines:
        return [f"{len(lines)} predictions for {expected_lines} input lines"]
    bad = sum(1 for line in lines if not PREDICT_LINE.fullmatch(line))
    return [f"{bad} malformed prediction lines"] if bad else []


def check_manifests(out_dir, stars_by_id: dict, train_n: int, test_n: int) -> list:
    """Each star's manifest holds train_n/test_n disjoint ids of that star."""
    problems = []
    for stars in (1, 2, 3, 4, 5):
        path = Path(out_dir) / f"split-{stars}.json"
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            train = manifest["train_review_ids"]
            test = manifest["test_review_ids"]
            declared = manifest["stars"]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable manifest ({exc})")
            continue
        ids = set(train) | set(test)
        if declared != stars:
            problems.append(f"{path.name}: declares {declared} stars")
        if len(train) != train_n or len(test) != test_n:
            problems.append(f"{path.name}: sizes {len(train)}/{len(test)}, "
                            f"expected {train_n}/{test_n}")
        if len(ids) != len(train) + len(test):
            problems.append(f"{path.name}: train and test ids overlap or repeat")
        if any(stars_by_id.get(review_id) != stars for review_id in ids):
            problems.append(f"{path.name}: holds ids that are not {stars}-star reviews")
    return problems


def check_repeat(reference: dict, fingerprint: dict) -> list:
    """Artifacts must be byte-identical to the first run of the same operation."""
    changed = sorted(name for name in reference.keys() | fingerprint.keys()
                     if reference.get(name) != fingerprint.get(name))
    return [f"differs from the first repeat: {', '.join(changed)}"] if changed else []
