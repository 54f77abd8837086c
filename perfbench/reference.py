"""A fixed reference task that measures how fast the host runs right now.

The benchmark runs it as a child process beside the program's commands and
divides their wall times by its own, so that a host that slows down or
speeds up between runs moves both alike. It does the kinds of work sarcnet
does (interpreter and numpy start-up, JSON parsing, regex tokenizing, dict
counting, small dense matrix products) on inputs fixed here, so it does the
same work on every commit.

Run: python3 perfbench/reference.py  (prints a checksum)
"""

import json
import random
import re
import zlib

import numpy as np

WORDS = ("great", "food", "service", "oh", "sure", "best", "wait", "ever", "love",
         "hour", "the", "a", "was", "not", "really", "amazing", "cold", "totally")
TOKEN = re.compile(r"[a-z']+|[!?.]")
RECORDS = 12000
MATMULS = 3000


def main() -> int:
    rng = random.Random(0)
    lines = [json.dumps({"review_id": f"r{i}", "stars": 1 + i % 5,
                         "text": " ".join(rng.choice(WORDS) for _ in range(20)) + "!"})
             for i in range(RECORDS)]
    counts = {}
    for line in lines:
        for token in TOKEN.findall(json.loads(line)["text"]):
            counts[token] = counts.get(token, 0) + 1
    weights = np.random.default_rng(0).standard_normal((15, 15))
    x = np.ones(15)
    for _ in range(MATMULS):
        x = np.tanh(weights @ x)
    assert np.isfinite(x).all()
    print(zlib.crc32(json.dumps(sorted(counts.items())).encode()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
