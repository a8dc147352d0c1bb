"""Experiment driver.

Subcommands cover the full pipeline: synth | prepare | bpe-learn | bpe-apply
| train | translate | score | attn-stats | pronoun-eval | heatmap.  main
writes every run manifest (config snapshot, input/output checksums, toolkit
version, timestamps) at a path each subcommand names from its flags: into
the output directory, or next to the output file of bpe-learn, bpe-apply and
score (score writes one only with --report).  A run that fails or is
interrupted still gets its manifest, with status "failed" or "interrupted"
and the error text.

Exit codes: 0 success, 2 configuration error (including an output location
that cannot be written), 3 malformed data or invalid input, 4 numeric
failure, 130 interrupted (Ctrl-C), 1 unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from collections import Counter
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path

from . import __version__
from . import attnstats as astats
from . import metrics
from .config import SECTIONS, AnalysisConfig, RunConfig, load_config, section_fields, start_manifest
from .corpus import (
    ContextConfig,
    Marking,
    SynthSpec,
    extend_corpus,
    generate_synthetic_corpus,
    open_output,
    read_doc_ids,
    read_extended_corpus,
    read_meta,
    read_parallel_corpus,
    read_text,
    write_extended_corpus,
    write_lines,
    write_parallel_corpus,
)
from .decode import (
    AttentionExport,
    BeamConfig,
    as_ensemble,
    beam_decode,
    extract_scored_segment,
    greedy_decode,
    read_attention_records,
    write_attention_records,
)
from .errors import ConfigError, CtxnmtError, DataError, NumericError
from .model import (
    UNK_ID,
    HyperParams,
    Vocabulary,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .subword import BpeConfig, apply_bpe_line, learn_bpe, load_bpe_model, protection, save_bpe_model, word_frequencies

# The most tokens a training vocabulary keeps, reserved tokens included.
_VOCAB_CAP = 60000

# --mode sets the window geometry and marking; the break token and context
# prefix stay as configured.
_MODES = {
    "baseline": dict(source_window=0, target_window=0, marking=Marking.BREAK),
    "2+1-prefix": dict(source_window=1, target_window=0, marking=Marking.PREFIX),
    "2+1-break": dict(source_window=1, target_window=0, marking=Marking.BREAK),
    "2+2": dict(source_window=1, target_window=1, marking=Marking.BREAK),
}


def _override(section, args):
    """`section` with every flag whose argparse dest names one of its fields applied."""
    changes = {key: getattr(args, key) for key in section_fields(section) if getattr(args, key, None) is not None}
    return replace(section, **changes) if changes else section


def _load_base_config(args) -> RunConfig:
    """The effective config: the INI file (or defaults), then the flags."""
    config = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    if args.out:
        config = replace(config, out_dir=args.out)
    if getattr(args, "mode", None):
        config = replace(config, context=replace(config.context, **_MODES[args.mode]))
    sections = {name: _override(getattr(config, name), args) for name in SECTIONS.values()}
    return replace(config, **sections).seeded()


def _in_out_dir(name: str):
    """Manifest path: `name`, %-formatted with the flags, in the output directory."""
    return lambda args, config: Path(config.out_dir) / (name % vars(args))


def _beside(path) -> Path:
    """Manifest path next to the output file `path`."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".manifest.json")


def _input_path(args, config, key, flags=None) -> str:
    """The input path of flag --`key`, or else of `[paths] key`; neither is a
    ConfigError naming `flags` (default --`key`) and the key."""
    path = getattr(args, key) or getattr(config, key + "_path")
    if not path:
        raise ConfigError("%s is required (or [paths] %s in --config)" % (flags or "--" + key, key))
    return path


def _read_lines(path) -> list[list[str]]:
    return [line.split() for line in read_text(path).splitlines()]


def _write(path, text: str, manifest):
    """Write one output file and record it in the manifest."""
    with open_output(path) as fh:
        fh.write(text)
    manifest.add_output(path)


# ---------------------------------------------------------------------------
# Subcommands: each gets the effective config and the started manifest, and
# records its inputs, outputs and counters there; main writes the manifest.
# ---------------------------------------------------------------------------

def cmd_synth(args, config, manifest):
    units = generate_synthetic_corpus(config.synth)
    out = Path(config.out_dir)
    paths = [out / (args.prefix + ext) for ext in (".src", ".trg", ".docs")]
    write_parallel_corpus(units, *paths)
    for p in paths:
        manifest.add_output(p)
    print("synth: wrote %d units to %s" % (len(units), out))


def cmd_prepare(args, config, manifest):
    src, trg, docs = (_input_path(args, config, key) for key in ("source", "target", "docs"))
    units = read_parallel_corpus(src, trg, docs)
    for p in (src, trg, docs):
        manifest.add_input(p)
    examples = extend_corpus(units, config.context)
    out = Path(config.out_dir)
    paths = [out / (args.prefix + ext) for ext in (".src", ".trg", ".docs", ".meta")]
    write_extended_corpus(examples, *paths)
    for p in paths:
        manifest.add_output(p)
    print("prepare: %d extended examples -> %s" % (len(examples), out))


def cmd_bpe_learn(args, config, manifest):
    lines = [tokens for path in args.input for tokens in _read_lines(path)]
    for p in args.input:
        manifest.add_input(p)
    frequencies = word_frequencies(lines, protection(config.context))
    model = learn_bpe(frequencies, config.bpe.num_merges)
    out_model = Path(args.out_model)
    save_bpe_model(model, out_model)
    manifest.add_output(out_model)
    # fewer merges than requested means the corpus ran out of pairs
    manifest.counters = {"word_types": len(frequencies), "merges_requested": config.bpe.num_merges,
                         "merges": len(model.merges)}
    print("bpe-learn: %d merges -> %s" % (len(model.merges), out_model))


def cmd_bpe_apply(args, config, manifest):
    model = load_bpe_model(args.model)
    protected = protection(config.context)
    lines = _read_lines(args.input)
    manifest.add_input(args.model)
    manifest.add_input(args.input)
    segmented = [apply_bpe_line(model, tokens, config.bpe.vocab_threshold, protected) for tokens in lines]
    write_lines(args.output, (" ".join(tokens) for tokens in segmented))
    manifest.add_output(args.output)
    # the model's segmentation cache starts empty, so every repeat of a segmented token is a hit
    counts = Counter(chain.from_iterable(lines))
    manifest.counters = {"tokens": sum(counts.values()),
                         "cache_hits": sum(count - 1 for tok, count in counts.items() if not protected(tok))}
    print("bpe-apply: %d lines -> %s" % (len(segmented), args.output))


def cmd_train(args, config, manifest):
    src, trg = _input_path(args, config, "source"), _input_path(args, config, "target")
    if args.meta:
        docs_or_meta = args.meta
        examples = read_extended_corpus(src, trg, args.meta)
    else:
        docs_or_meta = _input_path(args, config, "docs", "--meta or --docs")
        examples = extend_corpus(read_parallel_corpus(src, trg, docs_or_meta), ContextConfig(0, 0, Marking.BREAK))
    for p in (src, trg, docs_or_meta):
        manifest.add_input(p)

    src_vocab = Vocabulary.build((e.source_tokens for e in examples), max_size=_VOCAB_CAP)
    trg_vocab = Vocabulary.build((e.target_tokens for e in examples), max_size=_VOCAB_CAP)
    params = init_params(config.hyper, src_vocab, trg_vocab)
    failure = None
    try:
        result = train(params, examples, savepoint_schedule=args.savepoints)
    except (NumericError, KeyboardInterrupt) as exc:
        if not hasattr(exc, "result"):  # stopped before the first step
            raise
        failure, result = exc, exc.result  # keep what was trained before the failing step

    out = Path(config.out_dir)
    for ckpt in result.checkpoints:
        path = out / ("checkpoint-%06d.ckpt" % ckpt.step)
        save_checkpoint(ckpt.params, path)
        manifest.checkpoints.append(str(path))
        manifest.add_output(path)
    loss_path = out / "losses.tsv"
    with open_output(loss_path) as fh:
        fh.write("step\tloss\ttokens\tgrad_norm\n")
        for i, row in enumerate(zip(result.losses, result.tokens, result.grad_norms), start=1):
            fh.write("%d\t%.6f\t%d\t%.6g\n" % (i, *row))
    manifest.add_output(loss_path)
    manifest.counters = {"steps": len(result.losses), "target_tokens": sum(result.tokens), "skipped": result.skipped,
                         "src_vocab": len(src_vocab), "trg_vocab": len(trg_vocab), "params": params.num_params()}
    if failure is not None:
        raise failure
    last = result.losses[-1] if result.losses else float("nan")
    print(
        "train: %d steps, %d checkpoints, %d skipped, final loss %.4f -> %s"
        % (len(result.losses), len(result.checkpoints), result.skipped, last, out)
    )


def cmd_translate(args, config, manifest):
    model = as_ensemble((load_checkpoint(p) for p in args.checkpoint), len(args.checkpoint))
    beam = config.beam
    src_lines = _read_lines(args.source)
    limit = model.hyper.max_source_len
    for lineno, tokens in enumerate(src_lines, start=1):
        if not tokens or len(tokens) > limit:
            what = "%d source tokens exceed max_source_len %d" % (len(tokens), limit) if tokens else "empty source"
            raise DataError(what, path=args.source, line=lineno)

    meta = read_meta(args.meta, src_lines) if args.meta else [("", i, 0, 0) for i in range(len(src_lines))]
    for p in [args.source, args.meta] + list(args.checkpoint):
        manifest.add_input(p)

    use_greedy = beam.beam_size == 1 and beam.length_norm_alpha == 0.0 and beam.coverage_beta == 0.0
    sources = [model.src_vocab.encode(tokens) for tokens in src_lines]
    # A search depends only on the ids, the model and the beam config, so
    # each distinct id sequence is searched once and its result shared.
    results = {}
    exports, truncated = [], 0
    for i, (ids, tokens, (doc_id, idx, src_start, _)) in enumerate(zip(sources, src_lines, meta)):
        key = ids.tobytes()
        if key not in results:
            if use_greedy:
                results[key] = greedy_decode(model, ids, beam.max_len(len(ids)))
            else:
                results[key] = beam_decode(model, ids, beam)
        result = results[key]
        exports.append(
            AttentionExport(
                index=i,
                doc_id=doc_id,
                index_in_doc=idx,
                source_tokens=tokens,
                target_tokens=result.target_tokens(model),
                weights=result.weights,
                source_focus_start=src_start,
                break_token=config.context.break_token,
            )
        )
        truncated += result.truncated

    out = Path(config.out_dir)
    trg_path = out / (args.prefix + ".trg")
    attn_path = out / (args.prefix + ".attn.jsonl")
    write_lines(trg_path, (" ".join(ex.target_tokens) for ex in exports))
    write_attention_records(attn_path, exports)
    manifest.add_output(trg_path)
    manifest.add_output(attn_path)
    counters = manifest.counters = {
        "sentences": len(exports), "searches": len(results), "truncated": truncated,
        "source_tokens": sum(map(len, sources)),
        "unknown_source_tokens": sum(int((ids == UNK_ID).sum()) for ids in sources), "ensemble": len(model.flat)}
    print("translate: %d sentences (%d truncated) -> %s" % (counters["sentences"], counters["truncated"], trg_path))


def cmd_score(args, config, manifest):
    if args.window < 1:
        raise ConfigError("--window must be >= 1, got %d" % args.window)
    hyp = _read_lines(args.hyp)
    ref = _read_lines(args.ref)
    if args.segment_mode != "none":
        hyp = [extract_scored_segment(tokens, args.segment_mode, config.context.break_token) for tokens in hyp]
    if args.regime == "extended":
        if not args.docs:
            raise ConfigError("--docs is required for the extended scoring regime")
        doc_ids = read_doc_ids(args.docs)
        if len(doc_ids) != len(hyp):
            raise DataError("%d doc ids for %d hypothesis lines" % (len(doc_ids), len(hyp)), path=args.docs)
        b, c = metrics.score_extended(hyp, ref, doc_ids, window=args.window, break_token=config.context.break_token)
    else:
        b, c = metrics.bleu(hyp, ref), metrics.chrf(hyp, ref)
    manifest.counters = {"segments": len(hyp), "hyp_tokens": b.hyp_length, "ref_tokens": b.ref_length}
    report = metrics.format_score_report([(args.name, b, c)])
    if args.report:
        for path in (args.hyp, args.ref, args.docs if args.regime == "extended" else None):
            manifest.add_input(path)
        _write(args.report, report, manifest)
    sys.stdout.write(report)


def cmd_attn_stats(args, config, manifest):
    analysis = config.analysis
    exports = read_attention_records(args.attn)
    manifest.add_input(args.attn)
    partitions = []
    for export in exports:
        partitions.extend(astats.partition(export, analysis.model_kind))

    mass = astats.word_mass_stats(partitions, analysis.min_freq)
    peaks = astats.word_peak_stats(partitions, analysis.min_freq)
    majority = astats.majority_peak_stats(partitions, analysis.min_cases, analysis.majority_use_mass)
    proportion = astats.corpus_external_proportion(partitions)

    out = Path(config.out_dir)
    outputs = {
        out / (args.prefix + "-mass.tsv"): astats.format_stats_table(mass),
        out / (args.prefix + "-peaks.tsv"): astats.format_stats_table(peaks),
        out / (args.prefix + "-majority.tsv"): astats.format_majority_table(majority),
        out / (args.prefix + "-summary.tsv"): (
            "measure\tvalue\n"
            "corpus_external_proportion\t%.6f\n"
            "table_average_proportion\t%.6f\n" % (proportion, mass.average.proportion / 100.0)
        ),
    }
    for path, text in outputs.items():
        _write(path, text, manifest)
    print(
        "attn-stats: %d records, %d occurrences, external proportion %.4f -> %s"
        % (len(exports), len(partitions), proportion, out)
    )


def _parse_classes(spec: str):
    """Parse "name=form1|form2,name2=form3" into a class mapping."""
    classes = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError("--classes expects name=form|form,... got %r" % part)
        name, forms = part.split("=", 1)
        name = name.strip()
        forms = tuple(f.strip() for f in forms.split("|") if f.strip())
        if not forms:
            raise ConfigError("--classes entry %r has no forms" % part)
        if name in classes:
            raise ConfigError("--classes names class %r twice" % name)
        classes[name] = forms
    return classes


def cmd_pronoun_eval(args, config, manifest):
    paths = {}
    for spec in args.system:
        name, sep, path = spec.partition("=")
        if not sep:
            raise ConfigError("--system expects name=path, got %r" % spec)
        if name in paths:
            raise ConfigError("--system %r is given twice" % name)
        paths[name] = path
    for name in args.chi2 or ():
        if name not in paths:
            raise ConfigError("--chi2 names system %r, which no --system gives" % name)
    classes = _parse_classes(args.classes) if args.classes else metrics.SIE_PRONOUN_CLASSES
    source = _read_lines(args.source)
    ref = _read_lines(args.ref)
    systems = {name: _read_lines(path) for name, path in paths.items()}
    for path in (args.source, args.ref, *paths.values()):
        manifest.add_input(path)
    forms = tuple(args.pronoun_forms.split(","))
    occurrences = metrics.extract_pronoun_occurrences(source, ref, systems, forms)
    if args.classes:
        # custom class sets double as categories (one per class)
        for occ in occurrences:
            occ.category = metrics.pronoun_class(occ.reference_tokens, classes) or metrics.CATEGORY_UNKNOWN
        categories = list(classes)
    else:
        categories = list(metrics.SIE_CATEGORIES)
    metrics.judge_occurrences(occurrences, classes)
    report = metrics.pronoun_accuracy(occurrences, list(systems), categories)
    text = metrics.format_pronoun_report(report)
    out = Path(config.out_dir)
    _write(out / (args.prefix + "-pronoun.tsv"), text, manifest)

    if args.chi2:
        name_a, name_b = args.chi2
        a, b, c, d = report.counts_2x2(name_a, name_b)
        stat, significant = metrics.chi_square_2x2(a, b, c, d)
        chi_text = "systems\tstatistic\tsignificant_at_0.05\n%s vs %s\t%.4f\t%s\n" % (
            name_a, name_b, stat, significant,
        )
        _write(out / (args.prefix + "-chi2.tsv"), chi_text, manifest)
        sys.stdout.write(chi_text)

    if args.export_adjudication:
        lines = ["index\tcategory\tsource\treference\t" + "\t".join(systems)]
        for i, occ in enumerate(occurrences):
            cells = [str(i), occ.category, " ".join(occ.source_tokens), " ".join(occ.reference_tokens)]
            cells += [" ".join(occ.system_translations[s]) for s in systems]
            lines.append("\t".join(cells))
        _write(args.export_adjudication, "\n".join(lines) + "\n", manifest)

    sys.stdout.write(text)


def cmd_heatmap(args, config, manifest):
    exports = read_attention_records(args.attn)
    manifest.add_input(args.attn)
    matches = [e for e in exports if e.index == args.index]
    if len(matches) != 1:
        where = "appears on %d records of" % len(matches) if matches else "not present in"
        raise DataError("record index %d %s %s" % (args.index, where, args.attn))
    export = matches[0]
    out = Path(config.out_dir)
    written = [out / ("heatmap-%04d.tsv" % args.index)]
    _write(written[0], astats.heatmap_tsv(export), manifest)
    if args.image:
        written.append(out / ("heatmap-%04d.pgm" % args.index))
        _write(written[1], astats.heatmap_pgm(export), manifest)
    print("heatmap: wrote %s" % ", ".join(str(p) for p in written))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Three config fields keep short flags; every other config flag is its field
# name with dashes.
_SHORT_FLAGS = {"length_norm_alpha": "--alpha", "coverage_beta": "--beta", "majority_use_mass": "--use-mass"}


def _add_config_flags(p, section, *names):
    """One flag per INI key of the config class `section` (or per field in
    `names`), typed by the field's default; a bool flag sets True."""
    defaults = {f.name: f.default for f in fields(section)}
    for name in names or section_fields(section):
        flag = _SHORT_FLAGS.get(name, "--" + name.replace("_", "-"))
        if isinstance(defaults[name], bool):
            p.add_argument(flag, dest=name, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=name, type=type(defaults[name]))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="ctxnmt", description=__doc__)
    parser.add_argument("--version", action="version", version="ctxnmt %s (checkpoint v2, bpe v1)" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run configuration file (INI)")
    common.add_argument("--seed", type=int, help="master rng seed (overrides config)")
    common.add_argument("--out", help="output directory (overrides config)")

    p = sub.add_parser("synth", parents=[common], help="generate the synthetic pronoun corpus")
    _add_config_flags(p, SynthSpec)
    p.add_argument("--prefix", default="synth")
    p.set_defaults(func=cmd_synth, manifest_path=_in_out_dir("manifest-synth.json"))

    p = sub.add_parser("prepare", parents=[common], help="build context-extended training data")
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--docs")
    p.add_argument("--mode", choices=sorted(_MODES))
    p.add_argument("--prefix", default="extended")
    p.set_defaults(func=cmd_prepare, manifest_path=_in_out_dir("manifest-prepare.json"))

    p = sub.add_parser("bpe-learn", parents=[common], help="learn BPE merge operations")
    p.add_argument("--input", nargs="+", required=True, help="token files (several = joint codes)")
    _add_config_flags(p, BpeConfig, "num_merges")
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_bpe_learn, manifest_path=lambda args, config: _beside(args.out_model))

    p = sub.add_parser("bpe-apply", parents=[common], help="apply a BPE model to a token file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_config_flags(p, BpeConfig, "vocab_threshold")
    p.set_defaults(func=cmd_bpe_apply, manifest_path=lambda args, config: _beside(args.output))

    p = sub.add_parser("train", parents=[common], help="train the encoder-decoder")
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--docs")
    p.add_argument("--meta")
    _add_config_flags(p, HyperParams)
    p.add_argument("--savepoints", type=int, default=4)
    p.set_defaults(func=cmd_train, manifest_path=_in_out_dir("manifest-train.json"))

    p = sub.add_parser("translate", parents=[common], help="decode a source file with checkpoints (ensemble)")
    p.add_argument("--checkpoint", action="append", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--meta")
    p.add_argument("--prefix", default="hyp")
    _add_config_flags(p, BeamConfig)
    p.set_defaults(func=cmd_translate, manifest_path=_in_out_dir("manifest-translate-%(prefix)s.json"))

    p = sub.add_parser("score", parents=[common], help="BLEU/chrF3 scoring")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--docs")
    p.add_argument("--regime", choices=["plain", "extended"], default="plain")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--segment-mode", choices=["none", "last", "all"], default="none",
                   help="preprocess hypothesis lines (for two-sided models)")
    p.add_argument("--name", default="system")
    p.add_argument("--report")
    p.set_defaults(func=cmd_score, manifest_path=lambda args, config: (
        Path(args.report).with_suffix(".manifest.json") if args.report else None))

    p = sub.add_parser("attn-stats", parents=[common], help="attention statistics tables")
    p.add_argument("--attn", required=True)
    _add_config_flags(p, AnalysisConfig)
    p.add_argument("--prefix", default="attn")
    p.set_defaults(func=cmd_attn_stats, manifest_path=_in_out_dir("manifest-attn-stats-%(prefix)s.json"))

    p = sub.add_parser("pronoun-eval", parents=[common], help="pronoun category accuracy report")
    p.add_argument("--source", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--system", action="append", required=True, help="name=path (repeatable)")
    p.add_argument("--pronoun-forms", default="sie,Sie")
    p.add_argument("--classes", help="custom pronoun classes, e.g. 'he=he,she=she,it=it,they=they'")
    p.add_argument("--chi2", nargs=2, metavar=("SYS_A", "SYS_B"))
    p.add_argument("--export-adjudication")
    p.add_argument("--prefix", default="eval")
    p.set_defaults(func=cmd_pronoun_eval, manifest_path=_in_out_dir("manifest-pronoun-%(prefix)s.json"))

    p = sub.add_parser("heatmap", parents=[common], help="export one attention heatmap (TSV + PGM)")
    p.add_argument("--attn", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--no-image", dest="image", action="store_false", help="skip the PGM image")
    p.set_defaults(func=cmd_heatmap, manifest_path=_in_out_dir("manifest-heatmap-%(index)04d.json"))

    return parser


# The exit code and stderr label of each failure main reports without a
# traceback; the first matching type wins.
_FAILURES = (
    (ConfigError, 2, "config error"),
    (DataError, 3, "data error"),
    (NumericError, 4, "numeric failure"),
    (CtxnmtError, 1, "error"),
    (KeyboardInterrupt, 130, "interrupted"),
)


def main(argv=None) -> int:
    """Run one subcommand and write its manifest, whatever the outcome.

    The cyclic garbage collector is paused from parsing to the manifest
    write, and the caller's setting comes back on every exit.  A command
    builds acyclic data (token lists, pair tables, arrays) that reference
    counting frees as it goes, so the collector's passes free almost
    nothing, yet on the `prep-analyze` benchmark's inputs they took about a
    tenth of `bpe-learn` and `prepare` (medians of 6.7 of 69 ms and 5.6 of
    63 ms).  A whole command leaves a few dozen objects in cycles, however
    large its input.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    path = manifest = None
    try:
        config = _load_base_config(args)
        path = args.manifest_path(args, config)
        if path is not None:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError("cannot write %s: %s" % (path.parent, exc.strerror or exc)) from None
        manifest = start_manifest(args.command, config)
        args.func(args, config, manifest)
        return 0
    except BaseException as exc:
        if manifest is not None:
            manifest.status = "interrupted" if isinstance(exc, KeyboardInterrupt) else "failed"
            manifest.error = str(exc) or type(exc).__name__
        for kind, code, label in _FAILURES:
            if isinstance(exc, kind):
                print("%s: %s" % (label, exc) if str(exc) else label, file=sys.stderr)
                return code
        raise
    finally:
        if manifest is not None and path is not None:
            manifest.write(path)


if __name__ == "__main__":
    sys.exit(main())
