"""Command-line entry point for the whole pipeline.

Subcommands: ingest (split manifests per star), label (interactive
annotation loop), extract (feature dump), train (model + history),
eval (metrics report), predict (classify text lines), sweep (learning
rate grid).

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, insufficient pools), 3 runtime failure (training divergence).

Output artifacts carry a reproducibility stanza: tool version, base
seed, a digest of the effective configuration, the lexicon digest, and
digests of the input corpus files. Nothing time- or path-dependent goes
into an artifact, so rerunning a command with the same inputs and seed
reproduces it byte for byte.

Star-wide commands accept ``--stars all``; per-star output paths then
need a ``{stars}`` placeholder (for example ``--model model-{stars}.json``).
"""

import argparse
import hashlib
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .corpus import (
    DatasetSplit,
    SarcasmLabel,
    _UNDECODABLE,
    append_labels,
    label_reviews,
    make_split,
    read_labels,
    read_reviews,
    resolve_labels,
    write_split_manifest,
)
from .errors import DataError, TrainingDivergence
from .features import FeaturePipeline, normalize, write_feature_dump
from .lexicons import load_lexicons
from .network import MlpConfig, load_model, predict, save_model
from .training import (
    Main,
    NonSarcasticDominated,
    SarcasticOnly,
    TrainConfig,
    derive_seed,
    evaluate,
    lr_sweep,
    render_metrics_table,
    render_sweep_table,
    star_report,
    train,
    write_history,
    write_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

STAR_CHOICES = (1, 2, 3, 4, 5)


class CliParser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_stars(value: str) -> list:
    if value == "all":
        return list(STAR_CHOICES)
    stars = []
    for part in value.split(","):
        try:
            number = int(part)
        except ValueError:
            raise ValueError(f"stars must be 1..5 or 'all', got {part!r}") from None
        if number not in STAR_CHOICES:
            raise ValueError(f"stars must be 1..5 or 'all', got {part!r}")
        stars.append(number)
    if not stars:
        raise ValueError("stars list is empty")
    return stars


def _parse_hidden(value: str) -> tuple:
    try:
        return tuple(int(part) for part in value.split(",") if part != "")
    except ValueError:
        raise ValueError(f"--hidden expects a comma list of widths, got {value!r}") from None


def _parse_lr_grid(value: str) -> tuple:
    try:
        return tuple(float(part) for part in value.split(",") if part != "")
    except ValueError:
        raise ValueError(f"--lr-grid expects a comma list of rates, got {value!r}") from None


def _parse_stages(value: str | None):
    """Stage spec: comma list of sarcastic[:n], dominated[:n[:ratio]], main."""
    if value is None:
        return (SarcasticOnly(), NonSarcasticDominated(), Main())
    stages = []
    for token in value.split(","):
        name, _, rest = token.strip().partition(":")
        params = rest.split(":") if rest else []
        try:
            if name in ("sarcastic", "sarcastic_only"):
                stages.append(SarcasticOnly(int(params[0])) if params else SarcasticOnly())
            elif name in ("dominated", "non_sarcastic_dominated"):
                n = int(params[0]) if params else 500
                ratio = float(params[1]) if len(params) > 1 else 3.0
                stages.append(NonSarcasticDominated(n, ratio))
            elif name == "main":
                stages.append(Main())
            else:
                raise ValueError(
                    f"unknown stage {name!r} (expected sarcastic, dominated, or main)")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"bad stage spec {token!r}: {exc}") from None
    if not stages:
        raise ValueError("stage list is empty")
    return tuple(stages)


def _star_path(template: str, stars: int, multi: bool) -> str:
    if "{stars}" in template:
        return template.format(stars=stars)
    if multi:
        raise ValueError(
            f"output path {template!r} needs a {{stars}} placeholder when "
            "more than one star is selected")
    return template


def _prepare_out(path: str) -> str:
    """Create the parent directory of an output path if needed."""
    parent = Path(path).parent
    if parent and not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)
    return path


def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _provenance(seed, config: dict, lexicons, corpus_files: dict) -> dict:
    return {
        "tool": "sarcnet",
        "version": __version__,
        "seed": seed,
        "config_digest": _config_digest(config),
        "lexicon_digest": lexicons.digest,
        "corpus_digests": {name: _file_digest(path)
                           for name, path in sorted(corpus_files.items())},
    }


def _provenance_lines(prov: dict) -> list:
    lines = [f"tool: {prov['tool']} {prov['version']}", f"seed: {prov['seed']}",
             f"config_digest: {prov['config_digest']}",
             f"lexicon_digest: {prov['lexicon_digest']}"]
    lines += [f"{name}_digest: {digest}"
              for name, digest in sorted(prov["corpus_digests"].items())]
    return lines


def _load_reviews(path) -> list:
    try:
        reviews, errors = read_reviews(path)
    except OSError as exc:
        raise DataError(f"cannot read reviews file: {exc}") from exc
    for err in errors:
        print(f"warning: {path}:{err.line_number}: {err.reason}", file=sys.stderr)
    if not reviews:
        raise DataError(f"no valid reviews in {path}")
    return reviews


def _load_labels(path) -> list:
    try:
        labels, errors = read_labels(path)
    except OSError as exc:
        raise DataError(f"cannot read labels file: {exc}") from exc
    for err in errors:
        print(f"warning: {path}:{err.line_number}: {err.reason}", file=sys.stderr)
    return labels


def _star_pool(labeled: list, stars: int) -> list:
    return [lr for lr in labeled if lr.review.stars == stars]


def _split_for_star(labeled, stars, train_n, test_n, seed) -> DatasetSplit:
    pool = _star_pool(labeled, stars)
    try:
        return make_split(pool, train_n, test_n, derive_seed(seed, "split", stars))
    except DataError as exc:
        raise DataError(f"{stars}-star split: {exc}") from exc


def cmd_ingest(args) -> int:
    stars_list = _parse_stars(args.stars)
    reviews = _load_reviews(args.reviews)
    labeled = label_reviews(reviews, _load_labels(args.labels))
    lexicons = load_lexicons()
    config = {
        "command": "ingest",
        "train_size": args.train_size,
        "test_size": args.test_size,
        "stars": stars_list,
    }
    prov = _provenance(args.seed, config, lexicons,
                       {"reviews": args.reviews, "labels": args.labels})
    multi = len(stars_list) > 1
    for stars in stars_list:
        split = _split_for_star(labeled, stars, args.train_size, args.test_size,
                                args.seed)
        out_path = _prepare_out(_star_path(args.out, stars, multi))
        write_split_manifest(out_path, split, prov)
        print(f"{stars}-star: train {len(split.train)}, test {len(split.test)} "
              f"-> {out_path}")
    return EXIT_OK


def cmd_label(args) -> int:
    reviews = _load_reviews(args.reviews)
    try:
        existing = _load_labels(args.labels)
    except DataError:
        existing = []
    voted = {(label.review_id, label.annotator) for label in existing}
    pending = [r for r in reviews if (r.review_id, args.annotator) not in voted]
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
        append_labels(args.labels,
                      [SarcasmLabel(review.review_id, answer == "y", args.annotator)])
        recorded += 1
    print(f"\nrecorded {recorded} labels from {args.annotator}")
    return EXIT_OK


def cmd_extract(args) -> int:
    stars_list = _parse_stars(args.stars)
    reviews = [r for r in _load_reviews(args.reviews) if r.stars in set(stars_list)]
    if not reviews:
        raise DataError("no reviews with the requested star ratings")
    resolved = {}
    corpus_files = {"reviews": args.reviews}
    if args.labels:
        resolved = resolve_labels(_load_labels(args.labels))
        corpus_files["labels"] = args.labels
    lexicons = load_lexicons()
    pipeline = FeaturePipeline(lexicons)
    config = {"command": "extract", "stars": stars_list}
    prov = _provenance(args.seed, config, lexicons, corpus_files)
    rows = []
    for review in reviews:
        counts = pipeline.counts(review.text)
        rows.append((review.review_id, resolved.get(review.review_id), counts,
                     normalize(counts)))
    write_feature_dump(_prepare_out(args.out), rows, _provenance_lines(prov))
    print(f"wrote {len(rows)} feature rows -> {args.out}")
    return EXIT_OK


def _train_configs(args, stars: int) -> tuple:
    stages = _parse_stages(args.stages)
    train_config = TrainConfig(
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        stages=stages,
        lr_grid=_parse_lr_grid(args.lr_grid) if getattr(args, "lr_grid", None)
        else TrainConfig().lr_grid,
        seed=derive_seed(args.seed, "train", stars),
        reshuffle_each_epoch=args.reshuffle_each_epoch,
        carry_adam_state=args.carry_adam_state,
        lr_decay=args.lr_decay,
    )
    mlp_config = MlpConfig(
        hidden=_parse_hidden(args.hidden),
        keep_prob=args.keep_prob,
        seed=derive_seed(args.seed, "init", stars),
    )
    return train_config, mlp_config


def _train_provenance(args, stars_list, command: str, lexicons) -> dict:
    config = {
        "command": command,
        "stars": stars_list,
        "train_size": args.train_size,
        "test_size": args.test_size,
        "lr": args.lr,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "hidden": list(_parse_hidden(args.hidden)),
        "keep_prob": args.keep_prob,
        "stages": args.stages,
        "reshuffle_each_epoch": args.reshuffle_each_epoch,
        "carry_adam_state": args.carry_adam_state,
        "lr_decay": args.lr_decay,
    }
    if command == "sweep":
        config["lr_grid"] = list(_parse_lr_grid(args.lr_grid)) if args.lr_grid \
            else list(TrainConfig().lr_grid)
    return _provenance(args.seed, config, lexicons,
                       {"reviews": args.reviews, "labels": args.labels})


def cmd_train(args) -> int:
    stars_list = _parse_stars(args.stars)
    _train_configs(args, stars_list[0])  # validate flags before touching data
    reviews = _load_reviews(args.reviews)
    labeled = label_reviews(reviews, _load_labels(args.labels))
    lexicons = load_lexicons()
    pipeline = FeaturePipeline(lexicons)
    prov = _train_provenance(args, stars_list, "train", lexicons)
    multi = len(stars_list) > 1
    for stars in stars_list:
        split = _split_for_star(labeled, stars, args.train_size, args.test_size,
                                args.seed)
        train_config, mlp_config = _train_configs(args, stars)
        model, history = train(split, train_config, mlp_config, pipeline)
        model_path = _prepare_out(_star_path(args.model, stars, multi))
        history_path = _prepare_out(_star_path(args.out, stars, multi))
        save_model(model_path, model, prov)
        write_history(history_path, history, prov)
        final = history[-1]
        print(f"{stars}-star: {len(history)} stage-epochs, final train accuracy "
              f"{final.train_accuracy:.3f} -> {model_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    stars_list = _parse_stars(args.stars)
    reviews = _load_reviews(args.reviews)
    labeled = label_reviews(reviews, _load_labels(args.labels))
    lexicons = load_lexicons()
    pipeline = FeaturePipeline(lexicons)
    config = {
        "command": "eval",
        "stars": stars_list,
        "train_size": args.train_size,
        "test_size": args.test_size,
    }
    prov = _provenance(args.seed, config, lexicons,
                       {"reviews": args.reviews, "labels": args.labels})
    multi = len(stars_list) > 1
    reports = {}
    for stars in stars_list:
        split = _split_for_star(labeled, stars, args.train_size, args.test_size,
                                args.seed)
        model = load_model(_star_path(args.model, stars, multi))
        outcome = evaluate(model, list(split.test), pipeline)
        reports[stars] = star_report(stars, outcome)
    if "{stars}" in args.out:
        for stars, report in reports.items():
            write_report(_prepare_out(args.out.format(stars=stars)), {stars: report}, prov)
    else:
        write_report(_prepare_out(args.out), reports, prov)
    sys.stdout.write(render_metrics_table(reports))
    return EXIT_OK


def _predict_lines(stream, source: str):
    """Yield the non-blank lines of stream, warning about invalid UTF-8 ones."""
    for number, line in enumerate(stream, start=1):
        if _UNDECODABLE.search(line):
            print(f"warning: {source}:{number}: invalid UTF-8", file=sys.stderr)
            continue
        text = line.strip()
        if text:
            yield text


def _predict_input(path):
    """The predict input, as a context manager over its lines, and its name."""
    if path is None:
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        return nullcontext(sys.stdin), "<stdin>"
    try:
        return open(path, encoding="utf-8", errors="surrogateescape"), path
    except OSError as exc:
        raise DataError(f"cannot read input file: {exc}") from exc


def cmd_predict(args) -> int:
    model = load_model(args.model)
    pipeline = FeaturePipeline(load_lexicons())
    opened, source = _predict_input(args.input)
    with opened as stream:
        for text in _predict_lines(stream, source):
            label, confidence = predict(model, pipeline.vector(text))
            name = "sarcastic" if label == 1 else "non-sarcastic"
            print(f"{name} {confidence:.4f}", flush=True)
    return EXIT_OK


def cmd_sweep(args) -> int:
    stars_list = _parse_stars(args.stars)
    if len(stars_list) != 1:
        raise ValueError("sweep works on exactly one star rating")
    stars = stars_list[0]
    _train_configs(args, stars)  # validate flags before touching data
    reviews = _load_reviews(args.reviews)
    labeled = label_reviews(reviews, _load_labels(args.labels))
    lexicons = load_lexicons()
    pipeline = FeaturePipeline(lexicons)
    prov = _train_provenance(args, stars_list, "sweep", lexicons)
    split = _split_for_star(labeled, stars, args.train_size, args.test_size,
                            args.seed)
    train_config, mlp_config = _train_configs(args, stars)
    results = lr_sweep(split, train_config, mlp_config, pipeline)
    table = render_sweep_table(results)
    if args.out:
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


def _add_split_flags(parser):
    parser.add_argument("--stars", default="all",
                        help="star rating, comma list, or 'all' (default all)")
    parser.add_argument("--train-size", type=int, default=700,
                        help="train reviews per star (default 700)")
    parser.add_argument("--test-size", type=int, default=300,
                        help="test reviews per star (default 300)")


def _add_train_flags(parser):
    parser.add_argument("--lr", type=float, default=0.01,
                        help="learning rate (default 0.01)")
    parser.add_argument("--hidden", default="15,15",
                        help="comma list of hidden widths, 1 or 2 layers of 7..15")
    parser.add_argument("--epochs", type=int, default=10,
                        help="epochs per stage (default 10)")
    parser.add_argument("--batch-size", type=int, default=100,
                        help="minibatch size (default 100)")
    parser.add_argument("--keep-prob", type=float, default=0.75,
                        help="dropout keep probability (default 0.75)")
    parser.add_argument("--stages", default=None,
                        help="comma list: sarcastic[:n], dominated[:n[:ratio]], main "
                             "(default sarcastic:500,dominated:500:3.0,main)")
    parser.add_argument("--lr-decay", type=float, default=None,
                        help="optional per-epoch multiplicative lr decay, e.g. 0.9")
    parser.add_argument("--reshuffle-each-epoch", action="store_true",
                        help="reshuffle stage examples every epoch instead of once")
    parser.add_argument("--carry-adam-state", action="store_true",
                        help="carry Adam moments across stages instead of resetting")


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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="features.csv", help="feature dump path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one model per selected star")
    _add_corpus_flags(p)
    _add_split_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="model-{stars}.json",
                   help="output model path, {stars} expanded per star")
    p.add_argument("--out", default="history-{stars}.jsonl",
                   help="output history path, {stars} expanded per star")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved models on the test split")
    _add_corpus_flags(p)
    _add_split_flags(p)
    p.add_argument("--seed", type=int, default=0)
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
    _add_split_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
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
    except DataError as exc:
        print(f"sarcnet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergence as exc:
        print(f"sarcnet: training failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"sarcnet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
