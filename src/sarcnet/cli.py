"""Command-line entry point for the whole pipeline.

Subcommands: ingest (split manifests per star), label (interactive
annotation loop), extract (feature dump), train (model + history),
eval (metrics report), predict (classify text lines), sweep (learning
rate grid). Every input goes through the one block reader of
``sarcnet.corpus``, ``_BLOCK_SIZE`` bytes per ``read1``. predict answers
the whole lines of what one read of its file, pipe or terminal gives,
flushed before the next read, so a line written alone is answered at once.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, insufficient pools), 3 runtime failure (training divergence).

Output artifacts carry a reproducibility stanza: tool version, base
seed (except the feature dump, which draws no random number), a digest
of the effective configuration, the lexicon digest, and digests of the
input corpus files, each of exactly the bytes the command parsed, taken
in the same read: each corpus file is opened and read once. Nothing
time- or path-dependent goes into an artifact, so rerunning a command
with the same inputs and seed reproduces it byte for byte. A corpus
file must therefore be a regular file: a rerun cannot read a pipe's
bytes again. A pipe is refused before any input is read.

The commands that split the corpus (ingest, train, eval, sweep), and
extract given --labels, read a labels file of 4 MiB or more beside the
reviews file: a child forked at the start parses, hashes and tallies it
while this process parses the reviews, and sends back one byte per
review, the file's warnings and its digest in one reply.
Warnings, errors and their order are those of reading one file after
the other, and no child outlives the command. label reads both itself.

Star-wide commands accept ``--stars all``; per-star output paths then
need a ``{stars}`` placeholder (for example ``--model model-{stars}.json``).
An output path that names an input, or another output, is a usage error;
an empty output path, one that is an existing directory, or one whose
nearest existing ancestor is not a directory, is a data error. All are
refused before any input is read.
Each flag has one spelling: an abbreviated flag is a usage error. Each
whole number has one too (``+1``, ``007`` and ``" 1"`` are refused), and
a decimal may not be padded or hold '_' or a non-ASCII character.

Each command imports the modules it runs when it starts, not when this
module loads: ``ingest``, ``label`` and ``--help`` never load numpy, and
``predict`` never loads the trainer.
"""

import argparse
import errno
import gc
import hashlib
import json
import marshal
import os
import stat
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .corpus import (
    STAR_VALUES,
    LabeledReview,
    SarcasmLabel,
    _UNDECODABLE,
    _line_blocks,
    _new_tuple,
    _read_reviews,
    _read_votes,
    _string_problem,
    append_labels,
    derive_seed,
    make_split,
    open_jsonl,
    resolve_labels,
    write_split_manifest,
)
from .errors import DataError, TrainingDivergence
from .lexicons import load_lexicons

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class CliParser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1, not 2.

    A flag's prefix is not the flag: ``--batch`` is an unknown argument.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _unpadded(part: str) -> str:
    """Return part, refusing the surrounding whitespace that int() and float() strip."""
    if part != part.strip():
        raise ValueError(f"surrounding whitespace in {part!r}")
    return part


def _int(part: str) -> int:
    """int(part) for the one spelling str() gives back.

    int() also takes padding, '+', '_', leading zeros, '-0' and non-ASCII
    digits; each of those is refused.
    """
    number = int(_unpadded(part))
    if str(number) != part:
        raise ValueError(f"not a plain decimal integer: {part!r}")
    return number


def _float(part: str) -> float:
    """float(part), refusing the padding, '_' and non-ASCII digits float() takes."""
    if "_" in part or not part.isascii():
        raise ValueError(f"'_' or a non-ASCII character in {part!r}")
    return float(_unpadded(part))


# argparse names a type function in its refusal: "invalid int value: ' 1'"
_int.__name__, _float.__name__ = "int", "float"


def _parse_stars(value: str) -> list:
    if value == "all":
        return list(STAR_VALUES)
    stars = []
    for part in value.split(","):
        try:
            number = _int(part)
        except ValueError:
            raise ValueError(f"stars must be 1..5 or 'all', got {part!r}") from None
        if number not in STAR_VALUES:
            raise ValueError(f"stars must be 1..5 or 'all', got {part!r}")
        if number in stars:
            raise ValueError(f"star {number} is selected twice in {value!r}")
        stars.append(number)
    return stars


def _parse_list(value: str, parse, expects: str) -> tuple:
    """Parse every comma-separated part; an empty part or list is an error."""
    try:
        return tuple(parse(part) for part in value.split(","))
    except ValueError:
        raise ValueError(f"{expects}, got {value!r}") from None


def _parse_hidden(value: str) -> tuple:
    return _parse_list(value, _int, "--hidden expects a comma list of widths")


def _parse_stages(value: str | None) -> tuple:
    """Stage spec: comma list of sarcastic[:n], dominated[:n[:ratio]], main."""
    from .training import DEFAULT_STAGES, Main, NonSarcasticDominated, SarcasticOnly

    if value is None:
        return DEFAULT_STAGES
    # name -> (stage type, parsers of its optional parameters in order);
    # parameters left out take the stage's own defaults.
    kinds = {"sarcastic": (SarcasticOnly, (_int,)),
             "dominated": (NonSarcasticDominated, (_int, _float)),
             "main": (Main, ())}
    stages = []
    for token in value.split(","):
        name, _, rest = token.partition(":")
        params = rest.split(":") if rest else []
        try:
            if name not in kinds:
                raise ValueError(f"unknown stage {name!r} (expected {', '.join(kinds)})")
            kind, parsers = kinds[name]
            if len(params) > len(parsers):
                raise ValueError(
                    f"{name} takes at most {len(parsers)} parameters, got {len(params)}")
            stages.append(kind(*(parse(p) for parse, p in zip(parsers, params))))
        except ValueError as exc:
            raise ValueError(f"bad stage spec {token!r}: {exc}") from None
    return tuple(stages)


def _star_paths(template: str, stars_list: list) -> dict:
    """{stars: path} with {stars} replaced; run it before any work is done."""
    if "{stars}" not in template and len(stars_list) > 1:
        raise ValueError(
            f"output path {template!r} needs a {{stars}} placeholder when "
            "more than one star is selected")
    return {stars: template.replace("{stars}", str(stars)) for stars in stars_list}


def _refuse_same_file(flag, path, named) -> None:
    """Refuse path if it resolves as, or is a hard link of, a path of named's (flag, path)s."""
    for other_flag, other in named:
        try:
            same = os.path.samefile(path, other)
        except OSError:  # one of them does not exist yet
            same = False
        if same or os.path.realpath(path) == os.path.realpath(other):
            raise ValueError(f"{flag} {path!r} names the same file as {other_flag} {other!r}")


def _refuse_shared_paths(args, outputs: list, inputs: list = ()) -> None:
    """Refuse an output path that names an input or another output.

    outputs and inputs are (flag, path) pairs; --reviews and --labels are
    inputs too. An empty or absent path names no file; an empty output,
    one that is an existing directory, or one whose nearest existing
    ancestor is not a directory, gets the error that opening it would
    give, before the work instead of after it. Last, a corpus file that
    exists as neither a regular file nor a directory, such as a pipe, is
    refused: the digest is of the bytes parsed, taken in the same read,
    but a rerun cannot read a pipe's bytes again, so the artifacts could
    not be reproduced from the inputs they name. Each command that
    digests the corpus calls this before it reads any input.
    """
    named = [(flag, path) for flag, path in [("--reviews", args.reviews),
                                              ("--labels", args.labels), *inputs] if path]
    for flag, path in outputs:
        if path == "":
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if path is None:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        parent = os.path.dirname(path)
        while parent and not os.path.lexists(parent):
            parent = os.path.dirname(parent)
        if parent and not os.path.isdir(parent):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
        _refuse_same_file(flag, path, named)
        named.append((flag, path))
    for path in filter(None, (args.reviews, args.labels)):
        try:
            mode = os.stat(path).st_mode
        except OSError:  # a missing file is refused when it is opened
            continue
        if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            raise DataError(f"{path} is not a regular file, so its digest cannot be taken")


def _prepare_out(path: str) -> str:
    """Create the parent directory of an output path if needed."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return path


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _provenance(seed, config: dict, lexicons, corpus_digests: dict) -> dict:
    return {
        "tool": "sarcnet",
        "version": __version__,
        "seed": seed,
        "config_digest": _config_digest(config),
        "lexicon_digest": lexicons.digest,
        "corpus_digests": corpus_digests,
    }


def _provenance_lines(prov: dict) -> list:
    """The '#' stanza of prov; a seed of None (extract's) has no line."""
    lines = [f"tool: {prov['tool']} {prov['version']}"]
    lines += [f"{key}: {prov[key]}" for key in ("seed", "config_digest", "lexicon_digest")
              if prov[key] is not None]
    lines += [f"{name}_digest: {digest}"
              for name, digest in sorted(prov["corpus_digests"].items())]
    return lines


def _warn_parse_errors(path, errors) -> None:
    for line_number, reason in errors:
        print(f"warning: {path}:{line_number}: {reason}", file=sys.stderr)


def _load_reviews(path, digest=None) -> list:
    """The reviews file's valid reviews, its warnings printed, its bytes fed to digest."""
    try:
        with open(path, "rb") as fh:
            reviews, errors = _read_reviews(fh, digest)
    except OSError as exc:
        raise DataError(f"cannot read reviews file: {exc}") from exc
    _warn_parse_errors(path, errors)
    if not reviews:
        raise DataError(f"no valid reviews in {path}")
    return reviews


def _consume_labels(path, consume, digest=None) -> tuple:
    """(consume(votes), parse errors) of the labels file's valid votes, streamed.

    The votes, (annotator, review_id, sarcastic) as in a SarcasmLabel, are
    parsed a block at a time as consume reads them and never held as one
    list; the errors are the file's dropped lines. Its bytes go to digest.
    """
    errors = []
    try:
        with open(path, "rb") as fh:
            result = consume(_read_votes(fh, errors, digest))
    except OSError as exc:
        raise DataError(f"cannot read labels file: {exc}") from exc
    return result, errors


# A review's label as a byte of the labels reply, and back.
_CODES = {None: 0, False: 1, True: 2}
_LABELS = (None, False, True)
# The pipes carry marshal frames of this version, the last one that keeps
# no table of the objects it wrote: 60,000 distinct ids would only fill it.
_FRAME_VERSION = 2
# A labels file smaller than this is read in the command's own process. A
# fork costs in proportion to the process's memory: its page tables are
# copied, and each page either process writes next takes a fault. In a
# process holding numpy that is about 10-20 ms, more than a child saves on
# a smaller file: the reviews parse it overlaps takes about 5 ms per MB of
# votes, at four votes per review.
_FORK_MIN_BYTES = 1 << 22


def _label_codes(resolved: dict, review_ids) -> bytes:
    """One byte per review id, in order: 0 no vote, 1 non-sarcastic, 2 sarcastic."""
    return bytes(map(_CODES.__getitem__, map(resolved.get, review_ids)))


def _write_all(sink, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[sink.write(view):]


def _labels_child(path, ids_fd: int, reply_fd: int, parent_fds: tuple) -> None:
    """The forked child's whole run; it ends in os._exit and never returns.

    It closes parent_fds, the parent's ends of the pipes, so that it sees
    the ids' EOF. It tallies the labels file, hashing the bytes it
    parses, then reads the parent's review ids (one marshal frame) to
    EOF. It writes back one frame: the label codes of the ids, the parse
    errors as (line, reason) pairs, and the file's sha256. It prints
    nothing. On any error, and when the parent closes the pipe without
    sending ids, it ends without a reply.
    """
    try:
        for fd in parent_fds:
            os.close(fd)
        digest = hashlib.sha256()
        resolved, errors = _consume_labels(path, resolve_labels, digest)
        with open(ids_fd, "rb") as ids:
            review_ids = marshal.loads(ids.read())
        with open(reply_fd, "wb", buffering=0) as out:
            _write_all(out, marshal.dumps((_label_codes(resolved, review_ids),
                                           [tuple(error) for error in errors],
                                           digest.hexdigest()), _FRAME_VERSION))
    finally:
        os._exit(0)


class _LabelsBeside:
    """The labels file at path, read beside the caller's own work.

    For a file of at least _FORK_MIN_BYTES, entering forks a child that
    parses, hashes and tallies the file while the caller parses the
    reviews file. The child runs only the votes parser and the
    tally on a file of its own, so it takes no lock that another thread
    (numpy's BLAS pool, in train, eval and sweep) may hold at the fork.
    Only the review ids go to it and one byte per review comes back: the
    votes and the tally never reach this process. Leaving closes the
    pipes and waits for the child, on every path, so none outlives the
    command. For a smaller file, where os.fork is missing or fails, and
    when the child ends without a reply (a file it cannot read, an error,
    a signal), this process reads the file itself, and so meets any error
    where reading it in turn would.
    """

    def __init__(self, path):
        self.path = path
        self.pid = None
        self.reply = None  # the child's reply pipe, until it fails to reply

    def __enter__(self):
        try:
            large = os.stat(self.path).st_size >= _FORK_MIN_BYTES
        except OSError:  # opening it tells why
            large = False
        if not (large and hasattr(os, "fork")):
            return self
        ids_fd, ids_sink = os.pipe()
        reply_fd, reply_sink = os.pipe()
        self.sink = open(ids_sink, "wb", buffering=0)
        self.reply = open(reply_fd, "rb")
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare
            self._close()
        if self.pid == 0:
            _labels_child(self.path, ids_fd, reply_sink, (ids_sink, reply_fd))
        os.close(ids_fd)
        os.close(reply_sink)
        return self

    def _close(self):
        if self.reply is not None:
            self.sink.close()  # a child still waiting for the ids reads EOF and ends
            self.reply.close()
            self.reply = None

    def codes(self, review_ids: list) -> tuple:
        """(the _label_codes of review_ids, the sha256 of the bytes parsed); warnings printed."""
        if self.reply is not None:
            try:
                _write_all(self.sink, marshal.dumps(review_ids, _FRAME_VERSION))
            except BrokenPipeError:  # the child ended early
                pass
            self.sink.close()
            try:
                codes, errors, digest = marshal.load(self.reply)
            except (EOFError, ValueError, TypeError):  # no reply, or part of one
                self._close()
            else:
                _warn_parse_errors(self.path, errors)
                return codes, digest
        digest = hashlib.sha256()
        resolved, errors = _consume_labels(self.path, resolve_labels, digest)
        _warn_parse_errors(self.path, errors)
        return _label_codes(resolved, review_ids), digest.hexdigest()

    def __exit__(self, *exc_info):
        self._close()
        if self.pid is not None:
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
                pass


def _load_splits(args, stars_list: list, command: str, flags: dict) -> tuple:
    """(lexicons, provenance, {stars: split}) of a command over labeled reviews.

    flags are the command's own entries in the provenance config, beside
    the command, the stars and the split sizes.
    """
    reviews_digest = hashlib.sha256()
    with _LabelsBeside(args.labels) as labels:
        reviews = _load_reviews(args.reviews, reviews_digest)
        codes, labels_digest = labels.codes([review.review_id for review in reviews])
        # Each star's pool of labeled reviews in one pass, in input order,
        # while the child ends. The collector would only walk the reviews
        # again for each block of new tuples.
        pools = {stars: [] for stars in stars_list}
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            for review, code in zip(reviews, codes):
                if code and (pool := pools.get(review.stars)) is not None:
                    pool.append(_new_tuple(LabeledReview, (review, code == 2)))
        finally:
            if gc_enabled:
                gc.enable()
        lexicons = load_lexicons()
        config = {"command": command, "stars": stars_list,
                  "train_size": args.train_size, "test_size": args.test_size, **flags}
        prov = _provenance(args.seed, config, lexicons, {
            "labels": labels_digest, "reviews": reviews_digest.hexdigest()})
    splits = {}
    for stars, pool in pools.items():
        try:
            splits[stars] = make_split(pool, args.train_size, args.test_size,
                                       derive_seed(args.seed, "split", stars))
        except DataError as exc:
            raise DataError(f"{stars}-star split: {exc}") from exc
    return lexicons, prov, splits


def cmd_ingest(args) -> int:
    stars_list = _parse_stars(args.stars)
    out_paths = _star_paths(args.out, stars_list)
    _refuse_shared_paths(args, [("--out", path) for path in out_paths.values()])
    _, prov, splits = _load_splits(args, stars_list, "ingest", {})
    for stars, split in splits.items():
        out_path = _prepare_out(out_paths[stars])
        write_split_manifest(out_path, split, prov)
        print(f"{stars}-star: train {len(split.train)}, test {len(split.test)} "
              f"-> {out_path}")
    return EXIT_OK


def cmd_label(args) -> int:
    problem = _string_problem("annotator", args.annotator)
    if problem is not None:
        raise ValueError(problem)
    if args.reviews and args.labels:  # votes appended to the reviews would spoil them
        _refuse_same_file("--labels", args.labels, [("--reviews", args.reviews)])
    reviews = _load_reviews(args.reviews)
    try:
        voted, errors = _consume_labels(args.labels, lambda votes: {
            review_id for annotator, review_id, _ in votes if annotator == args.annotator})
    except DataError as exc:
        # No labels file yet: the first vote creates it, in a directory made now.
        if not isinstance(exc.__cause__, FileNotFoundError):
            raise
        _prepare_out(args.labels)
        voted, errors = set(), []
    _warn_parse_errors(args.labels, errors)
    pending = [r for r in reviews if r.review_id not in voted]
    print(f"{len(pending)} reviews awaiting a vote from {args.annotator}")
    recorded = 0
    for review in pending:
        print(f"\nreview {review.review_id} (stars: {review.stars})")
        print(review.text)
        while True:
            try:
                answer = input("sarcastic? [y/n/s/q] ").strip().lower()
            except EOFError:
                answer = "q"
            if answer in ("y", "n", "s", "q"):
                break
            print("please answer y, n, s, or q")
        if answer == "q":
            break
        if answer == "s":
            continue
        append_labels(args.labels, [SarcasmLabel(
            annotator=args.annotator, review_id=review.review_id, sarcastic=answer == "y")])
        recorded += 1
    print(f"\nrecorded {recorded} labels from {args.annotator}")
    return EXIT_OK


def cmd_extract(args) -> int:
    from .features import FeaturePipeline, write_feature_dump

    stars_list = _parse_stars(args.stars)
    _refuse_shared_paths(args, [("--out", args.out)])
    wanted = set(stars_list)
    reviews_digest = hashlib.sha256()
    with nullcontext() if args.labels is None else _LabelsBeside(args.labels) as labels:
        reviews = [r for r in _load_reviews(args.reviews, reviews_digest) if r.stars in wanted]
        if not reviews:
            raise DataError("no reviews with the requested star ratings")
        corpus_digests = {"reviews": reviews_digest.hexdigest()}
        if labels is None:
            codes = bytes(len(reviews))
        else:
            codes, corpus_digests["labels"] = labels.codes(
                [review.review_id for review in reviews])
        lexicons = load_lexicons()
    pipeline = FeaturePipeline(lexicons)
    config = {"command": "extract", "stars": stars_list}
    prov = _provenance(None, config, lexicons, corpus_digests)

    def rows():
        pairs = pipeline.counts_and_vectors([review.text for review in reviews])
        for review, code, (counts, vector) in zip(reviews, codes, pairs):
            yield review.review_id, _LABELS[code], counts, vector

    written = write_feature_dump(_prepare_out(args.out), rows(), _provenance_lines(prov))
    print(f"wrote {written} feature rows -> {args.out}")
    return EXIT_OK


def _train_configs(args, stars: int, stages: tuple, **run) -> tuple:
    """(TrainConfig, MlpConfig) of one star; run is train's lr or sweep's lr_grid."""
    from .network import MlpConfig
    from .training import TrainConfig

    train_config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        stages=stages,
        seed=derive_seed(args.seed, "train", stars),
        **run,
    )
    mlp_config = MlpConfig(
        hidden=_parse_hidden(args.hidden),
        keep_prob=args.keep_prob,
        seed=derive_seed(args.seed, "init", stars),
    )
    return train_config, mlp_config


def _train_flags(args) -> dict:
    """The entries of the flags _add_train_flags defines in the provenance config."""
    return {"hidden": list(_parse_hidden(args.hidden)), "epochs": args.epochs,
            "batch_size": args.batch_size, "keep_prob": args.keep_prob,
            "stages": args.stages}


def cmd_train(args) -> int:
    from .features import FeaturePipeline
    from .network import save_model
    from .training import _train_stars, write_history

    stars_list = _parse_stars(args.stars)
    stages = _parse_stages(args.stages)
    configs = {stars: _train_configs(args, stars, stages, lr=args.lr) for stars in stars_list}
    model_paths = _star_paths(args.model, stars_list)
    history_paths = _star_paths(args.out, stars_list)
    _refuse_shared_paths(args, [("--model", path) for path in model_paths.values()]
                         + [("--out", path) for path in history_paths.values()])
    lexicons, prov, splits = _load_splits(args, stars_list, "train",
                                          {**_train_flags(args), "lr": args.lr})
    pipeline = FeaturePipeline(lexicons)
    # Every star trains, in one stack, before any file is written, so a
    # star that fails leaves no model or history behind.
    trained = _train_stars(splits, configs, pipeline)
    for stars, (model, history) in trained.items():
        model_path = _prepare_out(model_paths[stars])
        save_model(model_path, model, prov)
        write_history(_prepare_out(history_paths[stars]), history, prov)
        final = history[-1]
        print(f"{stars}-star: {len(history)} stage-epochs, final train accuracy "
              f"{final.train_accuracy:.3f} -> {model_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .features import FeaturePipeline
    from .network import load_model
    from .training import evaluate, render_metrics_table, write_report

    stars_list = _parse_stars(args.stars)
    model_paths = _star_paths(args.model, stars_list)
    # (path, the stars it reports): one file per star, or one for them all.
    if "{stars}" in args.out:
        report_paths = [(path, [stars])
                        for stars, path in _star_paths(args.out, stars_list).items()]
    else:
        report_paths = [(args.out, stars_list)]
    _refuse_shared_paths(args, [("--out", path) for path, _ in report_paths],
                         [("--model", path) for path in model_paths.values()])
    # A model that cannot be read fails the run before the corpus is read.
    models = {stars: load_model(path) for stars, path in model_paths.items()}
    lexicons, prov, splits = _load_splits(args, stars_list, "eval", {})
    pipeline = FeaturePipeline(lexicons)
    reports = {stars: evaluate(models[stars], list(split.test), pipeline)
               for stars, split in splits.items()}
    for path, report_stars in report_paths:
        write_report(_prepare_out(path), {stars: reports[stars] for stars in report_stars},
                     prov)
    sys.stdout.write(render_metrics_table(reports))
    return EXIT_OK


def _predict_input(path):
    """The predict input, as a context manager over its stream, and its name."""
    if path is None:
        return nullcontext(sys.stdin), "<stdin>"
    try:
        return open_jsonl(path), path
    except OSError as exc:
        raise DataError(f"cannot read input file: {exc}") from exc


def cmd_predict(args) -> int:
    """Answer each block of input lines with one matrix, one predict_batch and one write.

    A block is what one read of the input gives (see ``_line_blocks``): a
    file or bulk pipe gives many lines, a line written alone its own
    block. Each block's answers are flushed before the next block is read. A
    line that is not valid UTF-8 is skipped with a warning, written
    after the answers to the lines before it and before those to the
    lines after it, so stdout and stderr merged keep line order.
    """
    from .features import FeaturePipeline
    from .network import load_model, predict_batch

    model = load_model(args.model)
    pipeline = FeaturePipeline(load_lexicons())
    opened, source = _predict_input(args.input)
    with opened as stream:
        buffer = getattr(stream, "buffer", None)
        # A stream of str lines only, such as a generator, gives a line at a time.
        blocks = (_line_blocks(buffer, universal=args.input is not None)
                  if hasattr(buffer, "read1") else enumerate(stream, start=1))
        for first, block in blocks:
            texts, skipped = [], []  # skipped: (answers before it, line number)
            # A block's closing "\n" leaves one more, empty, line: a blank one.
            for number, line in enumerate(block.split("\n"), start=first):
                if not line.isascii() and _UNDECODABLE.search(line):
                    skipped.append((len(texts), number))
                elif text := line.strip():
                    texts.append(text)
            classes, confidences = predict_batch(model, pipeline.matrix(texts))
            answers = [f"{('non-sarcastic', 'sarcastic')[label]} {confidence:.4f}\n"
                       for label, confidence in zip(classes.tolist(), confidences.tolist())]
            done = 0
            for at, number in skipped:
                print("".join(answers[done:at]), end="", flush=True)
                print(f"warning: {source}:{number}: invalid UTF-8", file=sys.stderr)
                done = at
            print("".join(answers[done:]), end="", flush=True)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .features import FeaturePipeline
    from .training import DEFAULT_LR_GRID, lr_sweep, render_sweep_table

    stars_list = _parse_stars(args.stars)
    if len(stars_list) != 1:
        raise ValueError("sweep works on exactly one star rating")
    _refuse_shared_paths(args, [("--out", args.out)])
    lr_grid = (_parse_list(args.lr_grid, _float, "--lr-grid expects a comma list of rates")
               if args.lr_grid is not None else DEFAULT_LR_GRID)
    train_config, mlp_config = _train_configs(args, stars_list[0],
                                              _parse_stages(args.stages), lr_grid=lr_grid)
    flags = {**_train_flags(args), "lr_grid": list(train_config.lr_grid)}
    lexicons, prov, splits = _load_splits(args, stars_list, "sweep", flags)
    results = lr_sweep(splits[stars_list[0]], train_config, mlp_config,
                       FeaturePipeline(lexicons))
    table = render_sweep_table(results)
    if args.out is not None:
        with open(_prepare_out(args.out), "w", encoding="utf-8") as fh:
            for line in _provenance_lines(prov):
                fh.write(f"# {line}\n")
            fh.write(table)
    sys.stdout.write(table)
    return EXIT_OK


def _add_corpus_flags(parser, labels_required=True):
    parser.add_argument("--reviews", required=True, help="reviews JSONL file")
    parser.add_argument("--labels", required=labels_required,
                        help="labels JSONL file")


def _add_split_flags(parser, one_star=False):
    if one_star:
        parser.add_argument("--stars", required=True, help="the one star rating, 1..5")
    else:
        parser.add_argument("--stars", default="all",
                            help="star rating, comma list, or 'all' (default all)")
    parser.add_argument("--train-size", type=_int, default=700,
                        help="train reviews per star (default 700)")
    parser.add_argument("--test-size", type=_int, default=300,
                        help="test reviews per star (default 300)")
    parser.add_argument("--seed", type=_int, default=0)


def _add_train_flags(parser):
    parser.add_argument("--hidden", default="15,15",
                        help="comma list of hidden widths, 1 or 2 layers of 7..15")
    parser.add_argument("--epochs", type=_int, default=10,
                        help="epochs per stage (default 10)")
    parser.add_argument("--batch-size", type=_int, default=100,
                        help="minibatch size (default 100)")
    parser.add_argument("--keep-prob", type=_float, default=0.75,
                        help="dropout keep probability (default 0.75)")
    parser.add_argument("--stages", default=None,
                        help="comma list: sarcastic[:n], dominated[:n[:ratio]], main "
                             "(default sarcastic:500,dominated:500:3.0,main)")


def build_parser() -> CliParser:
    parser = CliParser(prog="sarcnet",
                       description="Sarcasm classification over star-rated reviews.")
    parser.add_argument("--version", action="version",
                        version=f"sarcnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=CliParser)

    p = sub.add_parser("ingest", help="write per-star split manifests")
    _add_corpus_flags(p)
    _add_split_flags(p)
    p.add_argument("--out", default="split-{stars}.json",
                   help="manifest path, {stars} expanded per star")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("label", help="interactively vote on unlabeled reviews")
    _add_corpus_flags(p)
    p.add_argument("--annotator", required=True, help="annotator identifier")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("extract", help="write the feature dump")
    _add_corpus_flags(p, labels_required=False)
    p.add_argument("--stars", default="all",
                   help="star rating, comma list, or 'all' (default all)")
    p.add_argument("--out", default="features.csv", help="feature dump path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one model per selected star")
    _add_corpus_flags(p)
    _add_split_flags(p)
    _add_train_flags(p)
    p.add_argument("--lr", type=_float, default=0.01,
                   help="learning rate (default 0.01)")
    p.add_argument("--model", default="model-{stars}.json",
                   help="output model path, {stars} expanded per star")
    p.add_argument("--out", default="history-{stars}.jsonl",
                   help="output history path, {stars} expanded per star")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved models on the test split")
    _add_corpus_flags(p)
    _add_split_flags(p)
    p.add_argument("--model", default="model-{stars}.json",
                   help="model path, {stars} expanded per star")
    p.add_argument("--out", default="report.json",
                   help="report path; give a {stars} placeholder for per-star files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify review text lines")
    p.add_argument("--model", required=True, help="model file to load")
    p.add_argument("input", nargs="?", default=None,
                   help="text file, one review per line (default: stdin)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="rank learning rates on one star")
    _add_corpus_flags(p)
    _add_split_flags(p, one_star=True)
    _add_train_flags(p)
    p.add_argument("--lr-grid", default=None,
                   help="comma list of learning rates (default 1e-4,1e-3,1e-2)")
    p.add_argument("--out", default=None, help="optional path for the ranked table")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"sarcnet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"sarcnet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergence as exc:
        print(f"sarcnet: training failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
