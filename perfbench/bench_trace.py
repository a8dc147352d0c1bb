"""Traced runs: spans around calls into each ctxnmt module, and the per-layer
metrics computed from them.

The wrappers are installed from the benchmark's side, around the public
functions of every module.  cli.py and decode.py import names by value, so a
wrapper replaces the name where the caller looks it up (``ctxnmt.cli.train``,
``ctxnmt.decode.decode_step``), not only where it is defined.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import gzip
import os
import time

# (module, attribute path, span name).  The span name's first component is the
# layer.  Methods are patched on their class.
WRAPPED = [
    ("cli", "main", "cli.main"),
    # corpus
    ("cli", "generate_synthetic_corpus", "corpus.generate_synthetic_corpus"),
    ("cli", "extend_corpus", "corpus.extend_corpus"),
    ("cli", "read_parallel_corpus", "corpus.read_parallel_corpus"),
    ("cli", "write_parallel_corpus", "corpus.write_parallel_corpus"),
    ("cli", "read_extended_corpus", "corpus.read_extended_corpus"),
    ("cli", "write_extended_corpus", "corpus.write_extended_corpus"),
    # subword
    ("cli", "word_frequencies", "subword.word_frequencies"),
    ("cli", "learn_bpe", "subword.learn_bpe"),
    ("cli", "save_bpe_model", "subword.save_bpe_model"),
    ("cli", "load_bpe_model", "subword.load_bpe_model"),
    ("cli", "apply_bpe_line", "subword.apply_bpe_line"),
    ("subword", "apply_bpe", "subword.apply_bpe"),
    # model
    ("cli", "init_params", "model.init_params"),
    ("cli", "train", "model.train"),
    ("model", "backward", "model.backward"),
    ("model", "AdamOptimizer.update", "model.AdamOptimizer.update"),
    ("cli", "save_checkpoint", "model.save_checkpoint"),
    ("cli", "load_checkpoint", "model.load_checkpoint"),
    ("decode", "encode", "model.encode"),
    ("decode", "init_decoder_state", "model.init_decoder_state"),
    ("decode", "decode_step", "model.decode_step"),
    # decode
    ("cli", "greedy_decode", "decode.greedy_decode"),
    ("cli", "beam_decode", "decode.beam_decode"),
    ("decode", "beam_search", "decode.beam_search"),
    ("cli", "extract_scored_segment", "decode.extract_scored_segment"),
    ("decode", "extract_scored_segment", "decode.extract_scored_segment"),
    ("cli", "write_attention_records", "decode.write_attention_records"),
    ("cli", "read_attention_records", "decode.read_attention_records"),
    # attnstats
    ("attnstats", "partition", "attnstats.partition"),
    ("attnstats", "word_mass_stats", "attnstats.word_mass_stats"),
    ("attnstats", "word_peak_stats", "attnstats.word_peak_stats"),
    ("attnstats", "majority_peak_stats", "attnstats.majority_peak_stats"),
    ("attnstats", "corpus_external_proportion", "attnstats.corpus_external_proportion"),
    ("attnstats", "format_stats_table", "attnstats.format_stats_table"),
    ("attnstats", "format_majority_table", "attnstats.format_majority_table"),
    # metrics
    ("metrics", "bleu", "metrics.bleu"),
    ("metrics", "chrf", "metrics.chrf"),
    ("metrics", "score_extended", "metrics.score_extended"),
    ("metrics", "extract_pronoun_occurrences", "metrics.extract_pronoun_occurrences"),
    ("metrics", "judge_occurrences", "metrics.judge_occurrences"),
    ("metrics", "pronoun_accuracy", "metrics.pronoun_accuracy"),
    ("metrics", "chi_square_2x2", "metrics.chi_square_2x2"),
    ("metrics", "format_score_report", "metrics.format_score_report"),
    ("metrics", "format_pronoun_report", "metrics.format_pronoun_report"),
    # config
    ("cli", "start_manifest", "config.start_manifest"),
    ("config", "sha256_file", "config.sha256_file"),
    ("config", "RunManifest.write", "config.RunManifest.write"),
]

# Per-layer metrics, and the workloads on which each must be non-zero (the
# "large" and "small" columns of the prediction table in README.md).  A traced
# run fails a check when one of its expected metrics reads zero, which is how a
# renamed or bypassed function shows up.
PT, EB, PA = "pronoun-train", "ensemble-beam", "prep-analyze"
EXPECTED_NONZERO = {
    "model.train_s": {PT},
    "model.fwd_bwd_s": {PT},
    "model.fwd_bwd_calls": {PT},
    "model.adam_s": {PT},
    "model.train_self_s": {PT},
    "model.train_steps": {PT},
    "model.train_target_tokens": {PT},
    "model.train_skipped": set(),
    "model.encode_s": {EB, PT},
    "model.decode_step_s": {EB, PT},
    "model.decode_step_calls": {EB, PT},
    "model.ckpt_load_s": {EB, PT},
    "model.ckpt_save_s": {PT},
    "decode.greedy_s": {PT},
    "decode.beam_s": {EB},
    "decode.self_s": {EB, PT},
    "decode.sentences": {EB, PT},
    "decode.steps_per_sentence": {EB, PT},
    "decode.hyp_tokens": {EB, PT},
    "decode.truncated_ratio": set(),
    "decode.attn_io_s": {EB, PT, PA},
    "subword.learn_s": {PA},
    "subword.merges": {PA},
    "subword.apply_s": {PA},
    "subword.apply_tokens": {PA},
    "subword.apply_cache_hit_ratio": {PA},
    "subword.wordfreq_s": {PA},
    "corpus.extend_s": {PA, PT},
    "corpus.extend_examples": {PA, PT},
    "corpus.io_s": {PA, PT},
    "attnstats.partition_s": {PA, EB},
    "attnstats.records": {PA, EB},
    "attnstats.occurrences": {PA, EB},
    "attnstats.aggregate_s": {PA, EB},
    "metrics.bleu_s": {PA, EB},
    "metrics.chrf_s": {PA, EB},
    "metrics.segments": {PA, EB},
    "metrics.pronoun_s": {PT},
    "config.hash_s": {PA, PT, EB},
    "config.bytes_hashed": {PA, PT, EB},
    "config.manifest_write_s": {PA, PT, EB},
    "cli.self_s": {PA, PT, EB},
    "trace.overhead_s": set(),
}


def _resolve(modules, module_name, path):
    owner = modules[module_name]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records (name, start, end, parent index) spans and a few counters."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self):
        for module_name, path, span_name in WRAPPED:
            owner, attr = _resolve(self.modules, module_name, path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span_name))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name):
        spans, stack = self.spans, self._stack
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (i, parent, name, start, end))

    def layer_metrics(self, iterations: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics, as totals per traced iteration."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - covered

        def t(*names):
            return sum(total.get(n, 0.0) for n in names)

        def n(*names):
            return sum(calls.get(n, 0) for n in names)

        def c(name):
            return self.counters.get(name, 0)

        sentences = n("decode.greedy_decode", "decode.beam_decode")
        apply_calls = n("subword.apply_bpe")
        raw = {
            "model.train_s": t("model.train"),
            "model.fwd_bwd_s": t("model.backward"),
            "model.fwd_bwd_calls": n("model.backward"),
            "model.adam_s": t("model.AdamOptimizer.update"),
            "model.train_self_s": self_time.get("model.train", 0.0),
            "model.train_steps": c("model.train_steps"),
            "model.train_target_tokens": c("model.train_target_tokens"),
            "model.train_skipped": c("model.train_skipped"),
            "model.encode_s": t("model.encode"),
            "model.decode_step_s": t("model.decode_step"),
            "model.decode_step_calls": n("model.decode_step"),
            "model.ckpt_load_s": t("model.load_checkpoint"),
            "model.ckpt_save_s": t("model.save_checkpoint"),
            "decode.greedy_s": t("decode.greedy_decode"),
            "decode.beam_s": t("decode.beam_decode"),
            "decode.self_s": sum(self_time.get(k, 0.0) for k in
                                 ("decode.greedy_decode", "decode.beam_decode", "decode.beam_search")),
            "decode.sentences": sentences,
            "decode.hyp_tokens": c("decode.hyp_tokens"),
            "decode.attn_io_s": t("decode.write_attention_records", "decode.read_attention_records"),
            "subword.learn_s": t("subword.learn_bpe"),
            "subword.merges": c("subword.merges"),
            "subword.apply_s": t("subword.apply_bpe_line"),
            "subword.apply_tokens": c("subword.apply_tokens"),
            "subword.wordfreq_s": t("subword.word_frequencies"),
            "corpus.extend_s": t("corpus.extend_corpus"),
            "corpus.extend_examples": c("corpus.extend_examples"),
            "corpus.io_s": t("corpus.read_parallel_corpus", "corpus.write_parallel_corpus",
                             "corpus.read_extended_corpus", "corpus.write_extended_corpus"),
            "attnstats.partition_s": t("attnstats.partition"),
            "attnstats.records": n("attnstats.partition"),
            "attnstats.occurrences": c("attnstats.occurrences"),
            "attnstats.aggregate_s": t("attnstats.word_mass_stats", "attnstats.word_peak_stats",
                                       "attnstats.majority_peak_stats", "attnstats.corpus_external_proportion"),
            "metrics.bleu_s": t("metrics.bleu"),
            "metrics.chrf_s": t("metrics.chrf"),
            "metrics.segments": c("metrics.segments"),
            "metrics.pronoun_s": t("metrics.extract_pronoun_occurrences", "metrics.judge_occurrences",
                                   "metrics.pronoun_accuracy", "metrics.chi_square_2x2"),
            "config.hash_s": t("config.sha256_file"),
            "config.bytes_hashed": c("config.bytes_hashed"),
            "config.manifest_write_s": t("config.RunManifest.write"),
            "cli.self_s": self_time.get("cli.main", 0.0),
        }
        per_iteration = {k: v / iterations for k, v in raw.items()}
        per_iteration["decode.steps_per_sentence"] = n("model.decode_step") / sentences if sentences else 0.0
        per_iteration["decode.truncated_ratio"] = c("decode.truncated") / sentences if sentences else 0.0
        per_iteration["subword.apply_cache_hit_ratio"] = (
            c("subword.apply_cache_hits") / apply_calls if apply_calls else 0.0
        )
        per_iteration["trace.overhead_s"] = overhead_s
        return per_iteration


# Counting hooks by span name: (before(tracer, args, kwargs), after(tracer, args, kwargs, result)).

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _before_apply_bpe(tracer, args, kwargs):
    model, token = args[0], _arg(args, kwargs, 1, "token")
    threshold = _arg(args, kwargs, 2, "vocab_threshold", 0)
    cache = getattr(model, "_cache", None)
    if isinstance(cache, dict) and (token, threshold) in cache:
        tracer.count("subword.apply_cache_hits")


def _after_train(tracer, args, kwargs, result):
    tracer.count("model.train_steps", len(result.losses))
    tracer.count("model.train_skipped", result.skipped)


def _after_backward(tracer, args, kwargs, result):
    tracer.count("model.train_target_tokens", len(_arg(args, kwargs, 2, "target_ids")) + 1)


def _after_decode(tracer, args, kwargs, result):
    tracer.count("decode.hyp_tokens", len(result.target_ids))
    tracer.count("decode.truncated", int(bool(result.truncated)))


HOOKS = {
    "model.train": (None, _after_train),
    "model.backward": (None, _after_backward),
    "decode.greedy_decode": (None, _after_decode),
    "decode.beam_decode": (None, _after_decode),
    "subword.apply_bpe": (_before_apply_bpe, None),
    "subword.learn_bpe": (None, lambda tr, a, k, r: tr.count("subword.merges", len(r.merges))),
    "subword.apply_bpe_line": (
        None, lambda tr, a, k, r: tr.count("subword.apply_tokens", len(_arg(a, k, 1, "tokens")))),
    "corpus.extend_corpus": (None, lambda tr, a, k, r: tr.count("corpus.extend_examples", len(r))),
    "attnstats.partition": (None, lambda tr, a, k, r: tr.count("attnstats.occurrences", len(r))),
    "metrics.bleu": (None, lambda tr, a, k, r: tr.count("metrics.segments", len(_arg(a, k, 0, "hypotheses")))),
    "config.sha256_file": (
        None, lambda tr, a, k, r: tr.count("config.bytes_hashed", os.path.getsize(_arg(a, k, 0, "path")))),
}
