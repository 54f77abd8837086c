"""Word-list loading for the feature extractor.

Lexicons are plain UTF-8 text files, one lowercase entry per line, with
'#' comment lines. They live in the package's ``data/`` directory by
default; a different directory can be supplied explicitly or through the
``SARCNET_LEXICONS`` environment variable. The combined digest of all
files is carried into output artifacts for provenance tracking.
"""

import hashlib
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DataError

ENV_LEXICON_DIR = "SARCNET_LEXICONS"

DEFAULT_LEXICON_DIR = Path(__file__).parent / "data"

@dataclass(frozen=True, eq=False)
class Lexicons:
    """The seven word sets the features count, plus their combined digest.

    Instances compare and hash by identity, so the feature extractor's
    per-lexicon-set word table is found without comparing word sets; two
    loads of the same files have equal digests.
    """

    interjections: frozenset
    invocations: frozenset
    intensifiers: frozenset
    positive_words: frozenset
    negative_words: frozenset
    second_person: frozenset
    first_person_plural: frozenset
    digest: str


def _parse_wordlist(raw: str) -> frozenset:
    words = set()
    for line in raw.splitlines():
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        words.add(entry.lower())
    return frozenset(words)


def resolve_lexicon_dir(directory: str | Path | None = None) -> Path:
    """Explicit argument wins, then the environment variable, then the bundled data."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_LEXICON_DIR)
    if env:
        return Path(env)
    return DEFAULT_LEXICON_DIR


def load_lexicons(directory: str | Path | None = None) -> Lexicons:
    base = resolve_lexicon_dir(directory)
    if not base.is_dir():
        raise DataError(f"lexicon directory not found: {base}")
    sets = {}
    digest = hashlib.sha256()
    # Each word set is read from <field name>.txt; the digest hashes the
    # files in sorted field order.
    for field_name in sorted(f.name for f in fields(Lexicons) if f.name != "digest"):
        file_name = f"{field_name}.txt"
        path = base / file_name
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise DataError(f"missing lexicon file: {path}") from exc
        digest.update(file_name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(raw)
        digest.update(b"\x00")
        try:
            sets[field_name] = _parse_wordlist(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"lexicon file is not valid UTF-8: {path}: {exc}") from exc
    return Lexicons(digest=digest.hexdigest(), **sets)
