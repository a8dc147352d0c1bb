#!/usr/bin/env python3
"""Benchmark of the ctxnmt toolkit: three workloads driven through ctxnmt.cli.main.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pronoun-train --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: a fixed sequence of
subcommands, each waiting for the one before it, repeated until --seconds
have passed (at least once).  Inputs are made from --seed before timing
starts; the toolkit receives only those generated files.

--trace 0 prints the end-to-end metrics (totals over the loop's
iterations); --trace 1 alternates untraced and traced iterations and prints
the per-layer metrics computed from the traced ones (bench_trace.py).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record.

The toolkit is imported from src/ of the checkout this file sits in, never
from elsewhere; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODELS = HERE / "models"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHI_SQUARE_CRITICAL_05 = 3.841458820694124
PRONOUNS = ("he", "she", "it", "they")


class BenchError(Exception):
    """The benchmark cannot run: missing sources, changed fixed models, bad config."""


@dataclass
class Sample:
    """One iteration: seconds per stage, and the workload's throughput as items / seconds."""

    stages: dict[str, float]
    items: float
    item_seconds: float
    details: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.stages.values())


class Bench:
    """Calls into the toolkit and counts the output checks."""

    def __init__(self, modules, seed: int):
        self.modules = modules
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("perfbench: check failed: %s" % what, file=sys.stderr)
        return ok

    def call(self, *args) -> tuple[float, str]:
        """Run one subcommand in-process; returns (seconds, captured stdout)."""
        argv = [str(a) for a in args]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = self.modules["cli"].main(argv)
            except SystemExit as exc:
                code = exc.code
        seconds = time.perf_counter() - start
        self.expect(code == 0, "ctxnmt %s exited with %r" % (argv[0], code))
        return seconds, out.getvalue()

    # --- output checks -----------------------------------------------------

    def expect_lines(self, path, count: int) -> list[list[str]]:
        lines = read_lines(path)
        self.expect(len(lines) == count, "%s has %d lines, expected %d" % (path, len(lines), count))
        return lines

    def expect_attention(self, path, count: int):
        """One record per sentence, every attention row summing to 1 within 1e-6."""
        records = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
        self.expect(len(records) == count, "%s has %d records, expected %d" % (path, len(records), count))
        bad = sum(1 for r in records for row in r["weights"] if abs(math.fsum(row) - 1.0) > 1e-6)
        self.expect(bad == 0, "%s: %d attention rows do not sum to 1" % (path, bad))

    def expect_round_trip(self, original, segmented):
        """Joining subwords at '@@' markers gives back the input tokens, line by line."""
        bad = sum(1 for a, b in zip(original, segmented) if unsegment(b) != a)
        self.expect(bad == 0 and len(original) == len(segmented), "BPE round trip fails on %d lines" % bad)

    def expect_finite_losses(self, path, steps: int):
        rows = read_lines(path)[1:]
        losses = [float(row[1]) for row in rows]
        self.expect(len(losses) == steps, "%s has %d steps, expected %d" % (path, len(losses), steps))
        self.expect(all(math.isfinite(x) for x in losses), "%s has non-finite losses" % path)


def read_lines(path) -> list[list[str]]:
    return [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()]


def write_lines(path, lines):
    Path(path).write_text("".join(" ".join(tokens) + "\n" for tokens in lines), encoding="utf-8")


def unsegment(pieces) -> list[str] | None:
    words, current = [], ""
    for piece in pieces:
        if piece.endswith("@@") and len(piece) > 2:
            current += piece[:-2]
        else:
            words.append(current + piece)
            current = ""
    return None if current else words


def count_tokens(lines) -> int:
    return sum(len(tokens) for tokens in lines)


def score_value(report: str, column: str) -> float:
    header, row = report.splitlines()[:2]
    return float(row.split("\t")[header.split("\t").index(column)])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class PronounTrain:
    """Scaled-down acceptance criterion 8: a context-free baseline and a 2+2
    system trained side by side, decoded greedily, judged on pronouns."""

    name = "pronoun-train"
    TRAIN_DOCS = 300
    TEST_DOCS = 60
    UNITS_PER_DOC = 8
    SYSTEMS = (("base", "baseline"), ("2+2", "2+2"))
    HYPER = ("--epochs", 1, "--batch-size", 16, "--embed-dim", 24, "--hidden-dim", 32,
             "--attention-dim", 24, "--learning-rate", 0.02, "--savepoints", 1)
    CLASSES = "he=he,she=she,it=it,they=they"

    def setup(self, bench: Bench, d: Path) -> dict:
        bench.call("synth", "--out", d, "--num-docs", self.TEST_DOCS, "--units-per-doc", self.UNITS_PER_DOC,
                   "--seed", bench.seed + 1_000_003, "--prefix", "test")
        units = self.TEST_DOCS * self.UNITS_PER_DOC
        for _, mode in self.SYSTEMS:
            bench.call("prepare", "--source", d / "test.src", "--target", d / "test.trg", "--docs", d / "test.docs",
                       "--mode", mode, "--out", d, "--prefix", "test-" + mode)
            bench.expect_lines(d / ("test-%s.meta" % mode), units)
        return {"train_docs": self.TRAIN_DOCS, "test_docs": self.TEST_DOCS, "units_per_doc": self.UNITS_PER_DOC,
                "train_units": self.TRAIN_DOCS * self.UNITS_PER_DOC, "test_units": units,
                "systems": [mode for _, mode in self.SYSTEMS], "dims": "24/32/24", "batch": 16, "epochs": 1,
                "beam": 1, "alpha": 0.0}

    def iteration(self, bench: Bench, inputs: Path, d: Path, round_index: int) -> Sample:
        stages = dict.fromkeys(("synth", "prepare", "train", "translate", "extract", "pronoun_eval"), 0.0)
        train_units = self.TRAIN_DOCS * self.UNITS_PER_DOC
        test_units = self.TEST_DOCS * self.UNITS_PER_DOC
        stages["synth"], _ = bench.call("synth", "--out", d, "--num-docs", self.TRAIN_DOCS, "--units-per-doc",
                                        self.UNITS_PER_DOC, "--seed", bench.seed, "--prefix", "train")
        target_tokens = 0
        for _, mode in self.SYSTEMS:
            seconds, _ = bench.call("prepare", "--source", d / "train.src", "--target", d / "train.trg",
                                    "--docs", d / "train.docs", "--mode", mode, "--out", d, "--prefix", "train-" + mode)
            stages["prepare"] += seconds
            target = bench.expect_lines(d / ("train-%s.trg" % mode), train_units)
            target_tokens += count_tokens(target) + len(target)  # + EOS per example
        for _, mode in self.SYSTEMS:
            run = d / ("run-" + mode)
            seconds, out = bench.call("train", "--source", d / ("train-%s.src" % mode),
                                      "--target", d / ("train-%s.trg" % mode), "--docs", d / ("train-%s.docs" % mode),
                                      "--meta", d / ("train-%s.meta" % mode), "--out", run, "--seed", bench.seed,
                                      *self.HYPER)
            stages["train"] += seconds
            bench.expect(" 0 skipped" in out, "train %s skipped examples: %r" % (mode, out.strip()))
            bench.expect_finite_losses(run / "losses.tsv", math.ceil(train_units / 16))
        for _, mode in self.SYSTEMS:
            run = d / ("run-" + mode)
            checkpoints = sorted(run.glob("checkpoint-*.ckpt"))
            bench.expect(len(checkpoints) == 1, "train %s wrote %d checkpoints" % (mode, len(checkpoints)))
            seconds, _ = bench.call("translate", *[a for c in checkpoints for a in ("--checkpoint", c)],
                                    "--source", inputs / ("test-%s.src" % mode),
                                    "--meta", inputs / ("test-%s.meta" % mode), "--out", run, "--prefix", "hyp",
                                    "--beam-size", 1, "--alpha", 0)
            stages["translate"] += seconds
            bench.expect_lines(run / "hyp.trg", test_units)
            bench.expect_attention(run / "hyp.attn.jsonl", test_units)

        start = time.perf_counter()
        extract = bench.modules["decode"].extract_scored_segment
        hyps = {}
        for name, mode in self.SYSTEMS:
            hyps[name] = [extract(tokens, "last") for tokens in read_lines(d / ("run-%s" % mode) / "hyp.trg")]
            write_lines(d / ("%s.last" % mode), hyps[name])
        stages["extract"] = time.perf_counter() - start

        stages["pronoun_eval"], out = bench.call(
            "pronoun-eval", "--source", inputs / "test.src", "--ref", inputs / "test.trg",
            *[a for name, mode in self.SYSTEMS for a in ("--system", "%s=%s" % (name, d / ("%s.last" % mode)))],
            "--pronoun-forms", "sie", "--classes", self.CLASSES, "--chi2", "base", "2+2",
            "--out", d, "--prefix", "eval")
        accuracy = self._check_pronouns(bench, inputs, hyps, d / "eval-pronoun.tsv")
        return Sample(
            stages, items=target_tokens, item_seconds=stages["train"],
            details={
                "pronoun_acc": accuracy,
                "train_tok_per_s": target_tokens / stages["train"],
                "translate_sent_per_s": 2 * test_units / stages["translate"],
            },
        )

    def _check_pronouns(self, bench: Bench, inputs: Path, hyps, report_path) -> float:
        """Independent pronoun judgement; returns the 2+2 accuracy.

        The baseline sees no context, so it must not be significantly better
        than always answering the test set's majority class.  The test is
        one-sided: a context-free model that spreads its guesses over the
        classes lands significantly below that rate on some seeds, which is
        no fault.
        """
        source = read_lines(inputs / "test.src")
        reference = read_lines(inputs / "test.trg")

        def pronoun(tokens):
            low = {t.lower() for t in tokens}
            return next((p for p in PRONOUNS if p in low), None)

        rows = [i for i, src in enumerate(source) for tok in src if tok == "sie"]
        gold = [pronoun(reference[i]) for i in rows]
        correct = {name: sum(pronoun(hyps[name][i]) == g for i, g in zip(rows, gold)) for name in hyps}
        n = len(rows)
        accuracy = {name: c / n for name, c in correct.items()} if n else {}
        bench.expect(n > 0 and all(gold), "test set has %d pronoun occurrences" % n)
        if not n:
            return 0.0

        total = report_path.read_text(encoding="utf-8").splitlines()[-2].split("\t")
        reported = dict(zip(("base", "2+2"), (float(x) / 100 for x in total[2:4])))
        bench.expect(all(abs(reported[k] - accuracy[k]) <= 0.0006 for k in accuracy),
                     "pronoun-eval reports %r, independent count gives %r" % (reported, accuracy))
        bench.expect(accuracy["2+2"] >= 0.9, "2+2 pronoun accuracy %.3f < 0.9" % accuracy["2+2"])
        majority = max(gold.count(p) for p in PRONOUNS)
        stat = chi_square(correct["base"], n - correct["base"], majority, n - majority)
        bench.expect(correct["base"] <= majority or stat <= CHI_SQUARE_CRITICAL_05,
                     "baseline (%d/%d) beats the majority class (%d/%d): chi2 %.2f"
                     % (correct["base"], n, majority, n, stat))
        return accuracy["2+2"]


def chi_square(a: int, b: int, c: int, d: int) -> float:
    """Pearson chi-square of the 2x2 table [[a, b], [c, d]] without continuity correction."""
    margins = (a + b) * (c + d) * (a + c) * (b + d)
    return (a + b + c + d) * (a * d - b * c) ** 2 / margins if margins else 0.0


class EnsembleBeam:
    """Beam-8 decoding with a 4-savepoint ensemble of fixed checkpoints over
    2+2-extended test chunks, then scoring and attention statistics."""

    name = "ensemble-beam"
    CHUNKS = 24
    DOCS_PER_CHUNK = 6
    UNITS_PER_DOC = 8

    def setup(self, bench: Bench, d: Path) -> dict:
        checkpoints = verify_models()
        docs = self.CHUNKS * self.DOCS_PER_CHUNK
        bench.call("synth", "--out", d, "--num-docs", docs, "--units-per-doc", self.UNITS_PER_DOC,
                   "--seed", bench.seed, "--prefix", "test")
        bench.call("prepare", "--source", d / "test.src", "--target", d / "test.trg", "--docs", d / "test.docs",
                   "--mode", "2+2", "--out", d, "--prefix", "ext")
        for ext in (".src", ".trg", ".meta"):
            bench.expect_lines(d / ("ext" + ext), docs * self.UNITS_PER_DOC)
        return {"chunks": self.CHUNKS, "docs_per_chunk": self.DOCS_PER_CHUNK,
                "units_per_chunk": self.DOCS_PER_CHUNK * self.UNITS_PER_DOC,
                "beam": 8, "alpha": 0.6, "ensemble": len(checkpoints),
                "checkpoints": [p.name for p in checkpoints]}

    def iteration(self, bench: Bench, inputs: Path, d: Path, round_index: int) -> Sample:
        sentences = self.DOCS_PER_CHUNK * self.UNITS_PER_DOC
        k = round_index % self.CHUNKS
        chunk = d / "chunk"
        for ext in (".src", ".trg", ".meta"):
            lines = (inputs / ("ext" + ext)).read_text(encoding="utf-8").splitlines()
            chunk.with_suffix(ext).write_text(
                "".join(line + "\n" for line in lines[k * sentences : (k + 1) * sentences]), encoding="utf-8")
        stages = {}
        stages["translate"], _ = bench.call(
            "translate", *[a for c in sorted(MODELS.glob("*.ckpt")) for a in ("--checkpoint", c)],
            "--source", chunk.with_suffix(".src"), "--meta", chunk.with_suffix(".meta"), "--out", d,
            "--prefix", "hyp", "--beam-size", 8, "--alpha", 0.6)
        bench.expect_lines(d / "hyp.trg", sentences)
        bench.expect_attention(d / "hyp.attn.jsonl", sentences)
        stages["score"], report = bench.call("score", "--hyp", d / "hyp.trg", "--ref", chunk.with_suffix(".trg"),
                                             "--segment-mode", "all", "--name", "2+2", "--report", d / "score.tsv")
        stages["attn_stats"], _ = bench.call("attn-stats", "--attn", d / "hyp.attn.jsonl", "--model-kind", "2+2",
                                             "--out", d, "--prefix", "attn")
        bleu = score_value(report, "BLEU")
        bench.expect(bleu > 0, "BLEU of chunk %d is %r" % (k, bleu))
        bench.expect((d / "attn-summary.tsv").exists(), "attn-stats wrote no summary")
        return Sample(stages, items=sentences, item_seconds=stages["translate"],
                      details={"bleu": bleu, "translate_sent_per_s": sentences / stages["translate"]})


def verify_models() -> list[Path]:
    """The ensemble's checkpoints must match perfbench/models/SHA256SUMS."""
    sums_path = MODELS / "SHA256SUMS"
    try:
        entries = [line.split() for line in sums_path.read_text(encoding="utf-8").splitlines() if line.strip()]
        checkpoints = []
        for digest, name in entries:
            path = MODELS / name
            if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                raise BenchError("fixed model %s does not match its SHA-256 in %s" % (path, sums_path))
            checkpoints.append(path)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot verify the fixed models: %s" % exc) from exc
    if len(checkpoints) != 4 or sorted(checkpoints) != sorted(MODELS.glob("*.ckpt")):
        raise BenchError("expected exactly the 4 checkpoints listed in %s" % sums_path)
    return sorted(checkpoints)


class PrepAnalyze:
    """The non-neural pipeline: BPE, context extension, attention statistics, scoring."""

    name = "prep-analyze"
    TYPES = 3000
    INVENTORY = 30000
    MERGES = 500
    LEARN_TOKENS = 40000
    HELDOUT_TOKENS = 8000
    UNITS = 4000
    RECORDS = 300
    SCORE_LINES = 1000

    def setup(self, bench: Bench, d: Path) -> dict:
        import numpy as np

        import bench_inputs as gen

        rng = np.random.default_rng(bench.seed)
        inventory = gen.word_inventory(rng, self.INVENTORY)
        types = inventory[: self.TYPES]
        learn = gen.zipf_lines(rng, types, self.LEARN_TOKENS)
        write_lines(d / "learn.txt", learn)
        write_lines(d / "heldout.txt", gen.uniform_lines(rng, inventory, self.HELDOUT_TOKENS))
        write_lines(d / "par.src", gen.zipf_units(rng, types, self.UNITS))
        write_lines(d / "par.trg", gen.zipf_units(rng, types, self.UNITS))
        write_lines(d / "par.docs", [[doc] for doc in gen.doc_ids(rng, self.UNITS)])
        records = gen.attention_records(rng, self.RECORDS, types)
        (d / "attn.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        reference = gen.zipf_units(rng, types, self.SCORE_LINES)
        write_lines(d / "ref.txt", reference)
        write_lines(d / "hyp.txt", gen.corrupt(rng, reference, types))
        write_lines(d / "score.docs", [[doc] for doc in gen.doc_ids(rng, self.SCORE_LINES)])
        return {"types": self.TYPES, "merges": self.MERGES, "learn_tokens": self.LEARN_TOKENS,
                "learn_lines": len(learn), "heldout_tokens": self.HELDOUT_TOKENS,
                "heldout_inventory": self.INVENTORY, "units": self.UNITS, "records": self.RECORDS,
                "score_lines": self.SCORE_LINES}

    def iteration(self, bench: Bench, inputs: Path, d: Path, round_index: int) -> Sample:
        stages = {}
        stages["bpe_learn"], out = bench.call("bpe-learn", "--input", inputs / "learn.txt",
                                              "--num-merges", self.MERGES, "--out-model", d / "codes.bpe")
        merges = int(out.split()[1]) if out.startswith("bpe-learn:") else 0
        bench.expect(merges == self.MERGES, "bpe-learn learned %d merges, expected %d" % (merges, self.MERGES))

        stages["bpe_apply"] = 0.0
        apply_tokens = 0
        for text in ("learn", "heldout"):
            original = read_lines(inputs / ("%s.txt" % text))
            seconds, _ = bench.call("bpe-apply", "--model", d / "codes.bpe", "--input", inputs / ("%s.txt" % text),
                                    "--output", d / ("%s.bpe" % text))
            stages["bpe_apply"] += seconds
            apply_tokens += count_tokens(original)
            bench.expect_round_trip(original, bench.expect_lines(d / ("%s.bpe" % text), len(original)))

        stages["prepare"] = 0.0
        for mode, prefix in (("2+2", "ext22"), ("2+1-prefix", "ext21")):
            seconds, _ = bench.call("prepare", "--source", inputs / "par.src", "--target", inputs / "par.trg",
                                    "--docs", inputs / "par.docs", "--mode", mode, "--out", d, "--prefix", prefix)
            stages["prepare"] += seconds
            for ext in (".src", ".trg", ".docs", ".meta"):
                bench.expect_lines(d / (prefix + ext), self.UNITS)

        stages["attn_stats"], _ = bench.call("attn-stats", "--attn", inputs / "attn.jsonl", "--model-kind", "2+2",
                                             "--out", d, "--prefix", "attn")
        summary = read_lines(d / "attn-summary.tsv")
        proportion = float(summary[1][1]) if len(summary) > 1 else -1.0
        bench.expect(0.0 < proportion < 1.0, "corpus external proportion %r" % proportion)

        stages["score"] = 0.0
        for regime in ("plain", "extended"):
            seconds, report = bench.call("score", "--hyp", inputs / "hyp.txt", "--ref", inputs / "ref.txt",
                                         "--docs", inputs / "score.docs", "--regime", regime, "--window", 2,
                                         "--name", regime, "--report", d / ("score-%s.tsv" % regime))
            stages["score"] += seconds
            bleu = score_value(report, "BLEU")
            bench.expect(0.0 < bleu < 100.0, "%s BLEU of the corrupted reference is %r" % (regime, bleu))

        return Sample(
            stages, items=merges, item_seconds=stages["bpe_learn"],
            details={
                "bpe_learn_s": stages["bpe_learn"],
                "bpe_apply_tok_per_s": apply_tokens / stages["bpe_apply"],
                "prepare_units_per_s": 2 * self.UNITS / stages["prepare"],
                "attn_stats_rec_per_s": self.RECORDS / stages["attn_stats"],
                "score_seg_per_s": 2 * self.SCORE_LINES / stages["score"],
            },
        )


WORKLOADS = {w.name: w for w in (PronounTrain(), EnsembleBeam(), PrepAnalyze())}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def load_program():
    """Import ctxnmt from this checkout's src/ and nowhere else."""
    if not (SRC / "ctxnmt" / "__init__.py").is_file():
        raise BenchError("ctxnmt sources not found under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import ctxnmt
    from ctxnmt import attnstats, cli, config, corpus, decode, metrics, model, subword

    if Path(ctxnmt.__file__).resolve().parent != (SRC / "ctxnmt").resolve():
        raise BenchError("imported ctxnmt from %s, not from %s" % (ctxnmt.__file__, SRC))
    return {"cli": cli, "corpus": corpus, "subword": subword, "model": model, "decode": decode,
            "attnstats": attnstats, "metrics": metrics, "config": config}


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read BENCHMARK.json: %s" % exc) from exc


def run_record(args, sizes, setup_times, samples, traced_walls, numpy_module) -> dict:
    try:
        blas = numpy_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "ctxnmt").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    details = {}
    for sample in samples:
        for key, value in sample.details.items():
            details.setdefault(key, []).append(value)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy_module.__version__, "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(), "source_sha256": source.hexdigest(), "inputs": sizes,
        "setup_s": setup_times, "iterations": len(samples),
        "iteration_wall_s": [s.wall for s in samples], "traced_iteration_wall_s": traced_walls,
        "stage_medians": {k: statistics.median(v) for k, v in details.items()},
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_loop(seconds: float, min_iterations: int, run_one):
    """Closed loop: start another iteration only if it is predicted to end in time."""
    start = time.perf_counter()
    i = 0
    while True:
        began = time.perf_counter()
        run_one(i)
        i += 1
        now = time.perf_counter()
        if i >= min_iterations and (now - start) + (now - began) > seconds:
            return


def run(args) -> dict:
    spec = load_spec()
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")  # before numpy loads: the toolkit is single-threaded by design
    modules = load_program()
    import numpy
    import bench_trace

    workload = WORKLOADS[args.workload]
    names = [m["name"] for m in spec["end_to_end"]] if not args.trace else [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace and set(names) != set(bench_trace.EXPECTED_NONZERO):
        raise BenchError("per-layer metrics in BENCHMARK.json and bench_trace.EXPECTED_NONZERO differ: %s"
                         % sorted(set(names) ^ set(bench_trace.EXPECTED_NONZERO)))

    ws = WORK / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    bench = Bench(modules, args.seed)

    setup_times, sizes, inputs = [], {}, None
    for k in range(SETUP_REPEATS):
        inputs = ws / ("setup-%d" % k)
        inputs.mkdir()
        start = time.perf_counter()
        sizes = workload.setup(bench, inputs)
        setup_times.append(time.perf_counter() - start)

    tracer = bench_trace.Tracer(modules)
    samples, plain_walls, traced_walls = [], [], []
    period = 2 if args.trace else 1

    def run_one(i):
        traced = args.trace and i % 2 == 1
        d = ws / ("iter-%03d" % i)
        d.mkdir()
        if traced:
            tracer.install()
        try:
            sample = workload.iteration(bench, inputs, d, i // period)
        finally:
            tracer.uninstall()
        (traced_walls if traced else plain_walls).append(sample.wall)
        if not traced:
            samples.append(sample)
        shutil.rmtree(d)

    try:
        timed_loop(args.seconds, 2 if args.trace else 1, run_one)
    except Exception:  # a crashed iteration is a failed operation, reported in the result
        traceback.print_exc()
        bench.attempted += 1
        bench.failed += 1

    if args.trace:
        tracer.write(ws / "trace.tsv.gz")
        overhead = (statistics.median(traced_walls) - statistics.median(plain_walls)
                    if traced_walls and plain_walls else 0.0)
        values = tracer.layer_metrics(max(1, len(traced_walls)), overhead)
        for name, workloads in bench_trace.EXPECTED_NONZERO.items():
            if workload.name in workloads:
                bench.expect(values[name] != 0, "traced run produced no %s" % name)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            # Totals over the whole run, not medians of passes: this machine's
            # speed changes in regimes lasting minutes, and a median of passes
            # snaps to whichever regime held most of the run (README.md, Noise).
            "wall_s": sum(s.wall for s in samples) / len(samples) if samples else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput": sum(s.items for s in samples) / sum(s.item_seconds for s in samples) if samples else 0.0,
        }

    missing = set(names) - set(values)
    if missing:
        raise BenchError("no measurement for metrics named in BENCHMARK.json: %s" % sorted(missing))
    record = run_record(args, sizes, setup_times, samples, traced_walls, numpy)
    (ws / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for path in ws.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    return {
        "record": record,
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print("# record " + json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
