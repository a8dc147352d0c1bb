"""Config round-trip, manifest, and CLI subcommand tests."""

import argparse
import dataclasses
import datetime
import gc
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxnmt
from ctxnmt import errors
from ctxnmt.cli import build_parser, main
from ctxnmt.config import (
    SECTIONS,
    AnalysisConfig,
    RunConfig,
    load_config,
    save_config,
    section_fields,
    sha256_file,
    start_manifest,
)
from ctxnmt.corpus import ContextConfig, Marking, SynthSpec
from ctxnmt.decode import BeamConfig, beam_decode, read_attention_records
from ctxnmt import cli, model
from ctxnmt.errors import ConfigError, CtxnmtError, DataError, NumericError
from ctxnmt.model import HyperParams, Vocabulary, init_params, load_checkpoint, save_checkpoint
from ctxnmt.rng import substream
from ctxnmt.subword import BpeConfig, load_bpe_model

from pipelines import tiny_pipeline

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


def attention_record(drop=(), **fields) -> bytes:
    """One JSON line of a complete attention record, with fields replaced or dropped."""
    record = {"index": 0, "doc_id": "d", "index_in_doc": 0, "source_tokens": ["a"], "target_tokens": ["x"],
              "weights": [[1.0]], "source_focus_start": 0, "break_token": "_BREAK_"}
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if k not in drop}).encode("utf-8")


# No whitespace: the INI format strips it from the ends of a value.
_TEXT = st.text(st.characters(min_codepoint=33, max_codepoint=0x2FFF,
                              blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), max_size=12)
_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    """RunConfigs with random values in every INI key and in the per-section seeds."""
    marking = draw(st.sampled_from(Marking))
    return RunConfig(
        source_path=draw(_TEXT), target_path=draw(_TEXT), docs_path=draw(_TEXT), out_dir=draw(_TEXT),
        rng_seed=draw(st.integers(0, 2**63)),
        context=ContextConfig(
            source_window=draw(st.integers(0, 9)),
            target_window=draw(st.integers(0, 9)) if marking is Marking.BREAK else 0,
            marking=marking,
            context_prefix=draw(_TEXT.filter(bool)),
            break_token=draw(_TEXT.filter(bool)),
        ),
        bpe=BpeConfig(num_merges=draw(st.integers(0, 10**6)), vocab_threshold=draw(st.integers(0, 10**6))),
        hyper=HyperParams(
            **{name: draw(st.integers(1, 10**4)) for name in ("embed_dim", "hidden_dim", "attention_dim",
                                                            "max_source_len", "max_target_len", "batch_size")},
            epochs=draw(st.integers(0, 100)),
            learning_rate=draw(st.floats(min_value=0.0, exclude_min=True, **_FINITE)),
            rng_seed=draw(st.integers(0, 2**32)),
        ),
        beam=BeamConfig(
            beam_size=draw(st.integers(1, 64)),
            max_len_factor=draw(st.floats(min_value=0.0, **_FINITE)),
            max_len_constant=draw(st.integers(0, 10**4)),
            length_norm_alpha=draw(st.floats(0.0, 1.0)),
            coverage_beta=draw(st.floats(min_value=0.0, **_FINITE)),
        ),
        analysis=AnalysisConfig(
            min_freq=draw(st.integers(0, 99)), min_cases=draw(st.integers(0, 99)),
            majority_use_mass=draw(st.booleans()), model_kind=draw(st.sampled_from(["2+1", "2+2"])),
        ),
        synth=SynthSpec(num_docs=draw(st.integers(0, 10**4)), units_per_doc=draw(st.integers(0, 99)),
                        rng_seed=draw(st.integers(0, 2**32))),
    )


class TestRunConfig:
    def test_round_trip_lossless(self, tmp_path):
        config = RunConfig(
            source_path="a.src",
            target_path="a.trg",
            docs_path="a.docs",
            out_dir="outdir",
            rng_seed=99,
            context=ContextConfig(2, 2, Marking.BREAK, context_prefix="ctx_", break_token="_SEP_"),
            bpe=BpeConfig(num_merges=123, vocab_threshold=7),
            hyper=HyperParams(embed_dim=10, hidden_dim=11, attention_dim=12, learning_rate=0.00125,
                              batch_size=3, epochs=9, rng_seed=5),
            beam=BeamConfig(beam_size=5, max_len_factor=2.5, max_len_constant=7,
                            length_norm_alpha=0.3, coverage_beta=0.1),
            analysis=AnalysisConfig(min_freq=9, min_cases=2, majority_use_mass=True, model_kind="2+2"),
        )
        path = tmp_path / "run.ini"
        save_config(config, path)
        assert load_config(path) == config.seeded()  # [run] rng_seed is the only seed

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    @settings(max_examples=150, deadline=None)
    @given(config=run_configs())
    def test_round_trip_random_fields(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            save_config(config, path)
            assert load_config(path) == config.seeded()

    def test_ini_keys_are_the_scalar_fields(self, tmp_path):
        save_config(RunConfig(), tmp_path / "run.ini")
        keys = [line.split(" = ")[0] for line in (tmp_path / "run.ini").read_text().splitlines() if " = " in line]
        assert len(keys) == 31
        assert "rng_seed" in keys and keys.count("rng_seed") == 1
        assert "lexicon" not in keys and "pronoun_map" not in keys

    def test_seeded_propagates_master_seed(self):
        config = RunConfig(rng_seed=42).seeded()
        assert config.hyper.rng_seed == 42
        assert config.synth.rng_seed == 42


class TestManifest:
    def test_write_and_checksums(self, tmp_path):
        src = tmp_path / "x.txt"
        src.write_text("hello\n")
        manifest = start_manifest("test", RunConfig())
        manifest.add_input(src)
        manifest.add_output(src)
        path = tmp_path / "manifest.json"
        manifest.write(path)
        data = json.loads(path.read_text())
        assert data["command"] == "test"
        assert data["toolkit_version"]
        assert list(data["input_checksums"].values())[0] == list(data["output_checksums"].values())[0]
        assert data["started"] and data["finished"]
        assert not (tmp_path / "manifest.json.tmp").exists()

    def test_input_that_is_not_a_regular_file_is_config_error(self, tmp_path):
        manifest = start_manifest("test", RunConfig())
        with pytest.raises(ConfigError, match="not a regular file"):
            manifest.add_input(tmp_path)
        assert manifest.input_checksums == {}


class TestSubstreams:
    def test_deterministic(self):
        assert substream(1, "x").integers(1000) == substream(1, "x").integers(1000)

    def test_named_streams_differ(self):
        draws_a = substream(1, "a").integers(0, 1000, size=8)
        draws_b = substream(1, "b").integers(0, 1000, size=8)
        assert list(draws_a) != list(draws_b)


class TestCli:
    def test_prepare_golden(self, tmp_path):
        code = main([
            "prepare", "--source", str(DATA / "mini.src"), "--target", str(DATA / "mini.trg"),
            "--docs", str(DATA / "mini.docs"), "--mode", "2+1-prefix",
            "--out", str(tmp_path), "--prefix", "fig1",
        ])
        assert code == 0
        assert (tmp_path / "fig1.src").read_bytes() == (DATA / "golden_prefix.src").read_bytes()
        assert (tmp_path / "fig1.trg").read_bytes() == (DATA / "golden_prefix.trg").read_bytes()

    def test_prepare_names_the_docs_line_where_a_document_reappears(self, tmp_path, capsys):
        for ext, text in ((".src", "a\nb\nc\n"), (".trg", "x\ny\nz\n"), (".docs", "d1\nd2\nd1\n")):
            (tmp_path / ("in" + ext)).write_text(text)
        assert main(["prepare", "--source", str(tmp_path / "in.src"), "--target", str(tmp_path / "in.trg"),
                     "--docs", str(tmp_path / "in.docs"), "--mode", "2+2", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "data error: doc d1 is not contiguous (%s:3)\n" % (tmp_path / "in.docs")

    def test_synth_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            code = main(["synth", "--out", str(tmp_path / sub), "--num-docs", "7",
                         "--units-per-doc", "4", "--seed", "7"])
            assert code == 0
        for ext in (".src", ".trg", ".docs"):
            assert (tmp_path / "a" / ("synth" + ext)).read_bytes() == (tmp_path / "b" / ("synth" + ext)).read_bytes()

    def test_bpe_learn_and_apply(self, tmp_path):
        model_path = tmp_path / "codes.bpe"
        code = main(["bpe-learn", "--input", str(DATA / "bpe_corpus.txt"),
                     "--num-merges", "30", "--out-model", str(model_path)])
        assert code == 0
        model = load_bpe_model(model_path)
        assert len(model.merges) == 30
        out = tmp_path / "seg.txt"
        code = main(["bpe-apply", "--model", str(model_path), "--input", str(DATA / "mini.src"),
                     "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4
        manifest = json.loads((tmp_path / "seg.txt.manifest.json").read_text())
        assert manifest["command"] == "bpe-apply"
        assert len(manifest["input_checksums"]) == 2 and len(manifest["output_checksums"]) == 1

    def test_bpe_learn_manifest_says_when_it_ran_out_of_pairs(self, tmp_path, capsys):
        (tmp_path / "in.txt").write_text("ab abc ab\n")
        model_path = tmp_path / "codes.bpe"
        assert main(["bpe-learn", "--input", str(tmp_path / "in.txt"), "--num-merges", "100",
                     "--out-model", str(model_path)]) == 0
        # (a, b), (ab, c), (ab, </w>), (abc, </w>): then no pair is left
        assert capsys.readouterr().out == "bpe-learn: 4 merges -> %s\n" % model_path
        manifest = json.loads((tmp_path / "codes.bpe.manifest.json").read_text())
        assert manifest["counters"] == {"word_types": 2, "merges_requested": 100, "merges": 4}

    def test_bpe_apply_manifest_counts_tokens_and_cache_hits(self, tmp_path):
        (tmp_path / "in.txt").write_text("low lower low _BREAK_ qq\nlow _BREAK_ lower\n")  # "qq" is unseen
        assert main(["bpe-apply", "--model", str(DATA / "golden_bpe.model"), "--input", str(tmp_path / "in.txt"),
                     "--output", str(tmp_path / "seg.txt")]) == 0
        manifest = json.loads((tmp_path / "seg.txt.manifest.json").read_text())
        # 6 segmented tokens of 3 types; the break token passes through unsegmented
        assert manifest["counters"] == {"tokens": 8, "cache_hits": 3}

    def test_negative_bpe_arguments_are_config_errors(self, tmp_path):
        assert main(["bpe-learn", "--input", str(DATA / "bpe_corpus.txt"), "--num-merges", "-3",
                     "--out-model", str(tmp_path / "codes.bpe")]) == 2
        assert not (tmp_path / "codes.bpe").exists()
        assert main(["bpe-apply", "--model", str(DATA / "golden_bpe.model"), "--input", str(DATA / "mini.src"),
                     "--output", str(tmp_path / "seg.txt"), "--vocab-threshold", "-2"]) == 2
        assert not (tmp_path / "seg.txt").exists()

    def test_bpe_learn_is_independent_of_hash_seed(self, tmp_path):
        rng = random.Random(3)
        lines = [" ".join("".join(rng.choice("abcd") for _ in range(rng.randint(1, 7)))
                          for _ in range(rng.randint(1, 12))) for _ in range(200)]
        (tmp_path / "corpus.txt").write_text("\n".join(lines) + "\n")
        src = str(Path(ctxnmt.__file__).parents[1])
        models = []
        for hash_seed in ("1", "2024"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            model = tmp_path / ("codes-%s.bpe" % hash_seed)
            subprocess.run([sys.executable, "-m", "ctxnmt.cli", "bpe-learn", "--input", str(tmp_path / "corpus.txt"),
                            "--num-merges", "400", "--out-model", str(model)], env=env, check=True,
                           capture_output=True)
            models.append(model.read_bytes())
        assert len(load_bpe_model(tmp_path / "codes-1.bpe").merges) > 100
        assert models[0] == models[1]

    def test_a_pass_is_byte_identical_across_hash_seeds(self, tmp_path):
        # criterion 10 runs both of its passes in one process, so it cannot see string hashing
        script = ("import sys\nfrom ctxnmt.cli import main\nfrom pipelines import tiny_pipeline\n"
                  "for argv in tiny_pipeline(sys.argv[1]):\n    assert main(argv + ['--out', sys.argv[1]]) == 0, argv\n")
        path = [str(Path(ctxnmt.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, path)))
            subprocess.run([sys.executable, "-c", script, str(tmp_path / hash_seed)], env=env, check=True,
                           capture_output=True, timeout=300)
        artifacts = [sorted(p.relative_to(tmp_path / seed) for p in (tmp_path / seed).rglob("*")
                            if p.is_file() and "manifest" not in p.name) for seed in ("1", "2")]
        assert artifacts[0] == artifacts[1] and len(artifacts[0]) >= 20
        for rel in artifacts[0]:
            assert (tmp_path / "1" / rel).read_bytes() == (tmp_path / "2" / rel).read_bytes(), rel

    def test_score_window_below_one_is_config_error(self, tmp_path):
        argv = ["score", "--hyp", str(DATA / "mini.trg"), "--ref", str(DATA / "mini.trg"),
                "--docs", str(DATA / "mini.docs"), "--regime", "extended"]
        assert main(argv + ["--window", "1"]) == 0
        for window in ("0", "-1"):
            assert main(argv + ["--window", window]) == 2

    def test_score_subcommand(self, tmp_path, capsys):
        code = main(["score", "--hyp", str(DATA / "mini.trg"), "--ref", str(DATA / "mini.trg"),
                     "--name", "identity"])
        assert code == 0
        out = capsys.readouterr().out
        assert "identity\t100.00\t100.00" in out

    def test_score_manifest_records_every_input(self, tmp_path):
        ref = tmp_path / "ref.trg"
        ref.write_text((DATA / "mini.trg").read_text())
        inputs = [DATA / "mini.src", ref, DATA / "mini.docs"]
        # the plain regime does not read --docs
        for regime, read in (("plain", inputs[:2]), ("extended", inputs)):
            report = tmp_path / ("score-%s.tsv" % regime)
            assert main(["score", "--hyp", str(inputs[0]), "--ref", str(inputs[1]), "--docs", str(inputs[2]),
                         "--regime", regime, "--report", str(report)]) == 0
            manifest = json.loads(report.with_suffix(".manifest.json").read_text())
            assert manifest["input_checksums"] == {str(p): sha256_file(p) for p in read}

    def test_plain_score_ignores_a_docs_directory(self, tmp_path):
        report = tmp_path / "r" / "r.tsv"
        assert main(["score", "--hyp", str(DATA / "mini.trg"), "--ref", str(DATA / "mini.trg"),
                     "--docs", str(tmp_path), "--report", str(report)]) == 0
        manifest = json.loads(report.with_suffix(".manifest.json").read_text())
        assert manifest["status"] == "ok" and list(manifest["input_checksums"]) == [str(DATA / "mini.trg")]

    def test_score_window_below_one_is_config_error_in_plain_regime(self):
        for window in ("0", "-1"):
            assert main(["score", "--hyp", str(DATA / "mini.trg"), "--ref", str(DATA / "mini.trg"),
                         "--window", window]) == 2

    def test_score_blank_doc_id_is_data_error(self, tmp_path, capsys):
        docs = tmp_path / "score.docs"
        docs.write_text("m1\nm1\n\nm1\n")
        assert main(["score", "--hyp", str(DATA / "mini.trg"), "--ref", str(DATA / "mini.trg"),
                     "--docs", str(docs), "--regime", "extended"]) == 3
        assert "%s:3" % docs in capsys.readouterr().err

    def test_score_doc_count_mismatch_names_counts_and_path(self, tmp_path, capsys):
        docs = tmp_path / "score.docs"
        docs.write_text("m1\nm1\nm1\n")
        assert main(["score", "--hyp", str(DATA / "mini.trg"), "--ref", str(DATA / "mini.trg"),
                     "--docs", str(docs), "--regime", "extended"]) == 3
        err = capsys.readouterr().err
        assert "3 doc ids for 4 hypothesis lines" in err and str(docs) in err

    def test_score_manifest_counts_segments_and_tokens(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("a b c\n_BREAK_ d\n\ne f\n")
        (tmp_path / "ref.txt").write_text("a b\nd\nx\ne f g\n")
        (tmp_path / "score.docs").write_text("m1\nm1\nm2\nm2\n")
        counters = {}
        for regime in ("plain", "extended"):
            report = tmp_path / ("score-%s.tsv" % regime)
            assert main(["score", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"),
                         "--docs", str(tmp_path / "score.docs"), "--regime", regime, "--report", str(report)]) == 0
            counters[regime] = json.loads(report.with_suffix(".manifest.json").read_text())["counters"]
        assert counters["plain"] == {"segments": 4, "hyp_tokens": 7, "ref_tokens": 7}
        # windows of two within each document, break tokens removed:
        # (a b c), (a b c d), (), (e f) against (a b), (a b d), (x), (x e f g)
        assert counters["extended"] == {"segments": 4, "hyp_tokens": 9, "ref_tokens": 10}

    def test_config_error_exit_code(self, tmp_path):
        assert main(["prepare", "--config", str(tmp_path / "none.ini"), "--mode", "2+2"]) == 2

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "x.src").write_text("a b\nc d\n")
        (bad / "x.trg").write_text("A B\n")  # mismatched line count
        (bad / "x.docs").write_text("d\nd\n")
        code = main(["prepare", "--source", str(bad / "x.src"), "--target", str(bad / "x.trg"),
                     "--docs", str(bad / "x.docs"), "--mode", "2+2", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize(
        "ini, named",
        [
            ("[model]\nhiden_dim = 64\n", "hiden_dim"),
            ("[bpe]\nnum_merge = 5\n", "num_merge"),
            ("[bpe]\njoint = True\n", "joint"),
            ("[model]\nrng_seed = 3\n", "rng_seed"),
            ("[analysis]\nmajority_use_mass = true\n", "majority_use_mass"),
            ("[beam]\nbeam_size = 2.5\n", "beam_size"),
            ("[context]\nmarking = prefixed\n", "marking"),
            ("[contexts]\nsource_window = 1\n", "contexts"),
            ("[DEFAULT]\nhidden_dim = 7\n", "DEFAULT"),
            ("[context]\ncontext_prefix =\n", "[context] context_prefix"),
            ("[context]\nbreak_token = _A B_\n", "[context] break_token"),
        ],
        ids=["typo", "typo-bpe", "legacy-joint", "section-seed", "lowercase-bool", "float-for-int",
             "bad-enum", "unknown-section", "default-section", "empty-context-prefix", "spaced-break-token"],
    )
    def test_config_outside_the_schema_is_config_error(self, tmp_path, capsys, ini, named):
        (tmp_path / "run.ini").write_text(ini)
        assert main(["synth", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path), "--num-docs", "1"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "synth.src").exists()

    def test_flag_beats_ini_value(self, tmp_path):
        (tmp_path / "run.ini").write_text("[synth]\nnum_docs = 5\nunits_per_doc = 2\n")
        assert main(["synth", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path), "--num-docs", "3"]) == 0
        assert len((tmp_path / "synth.docs").read_text().splitlines()) == 3 * 2
        manifest = json.loads((tmp_path / "manifest-synth.json").read_text())
        assert manifest["config"]["synth"]["num_docs"] == 3
        assert manifest["config"]["synth"]["units_per_doc"] == 2

    def test_every_config_flag_names_one_section_field(self):
        """The generic override applies a flag to every section with a field of its
        dest's name, so no such dest may name fields of two sections."""
        defaults = RunConfig()
        keys = {name: set(section_fields(getattr(defaults, name))) for name in SECTIONS.values()}
        all_fields = {f.name for name in SECTIONS.values() for f in dataclasses.fields(getattr(defaults, name))}
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for p in subparsers.choices.values() for a in p._actions}
        overrides = dests & all_fields
        assert {"length_norm_alpha", "coverage_beta", "majority_use_mass", "hidden_dim", "num_docs"} <= overrides
        for dest in overrides:
            assert sum(dest in k for k in keys.values()) == 1, dest

    def test_two_runs_build_one_parser(self, tmp_path, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert main(["synth", "--num-docs", "1", "--out", str(tmp_path)]) == 0
        assert built.count("ctxnmt") <= 1  # none when an earlier run in this process built it

    def test_prepare_mode_keeps_configured_break_token(self, tmp_path):
        (tmp_path / "run.ini").write_text("[context]\nbreak_token = _SEP_\n")
        assert main(["prepare", "--config", str(tmp_path / "run.ini"), "--source", str(DATA / "mini.src"),
                     "--target", str(DATA / "mini.trg"), "--docs", str(DATA / "mini.docs"), "--mode", "2+2",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "extended.src").read_text()
        assert "_SEP_" in text and "_BREAK_" not in text
        manifest = json.loads((tmp_path / "manifest-prepare.json").read_text())
        assert manifest["config"]["context"] == {"source_window": 1, "target_window": 1, "marking": "break",
                                                 "context_prefix": "cc_", "break_token": "_SEP_"}

    def test_configured_missing_source_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.src"
        save_config(RunConfig(source_path=str(missing), target_path=str(DATA / "mini.trg"),
                              docs_path=str(DATA / "mini.docs")), tmp_path / "run.ini")
        assert main(["prepare", "--config", str(tmp_path / "run.ini"), "--mode", "2+2", "--out", str(tmp_path)]) == 3
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prepare", "train"])
    @pytest.mark.parametrize("key", ["source", "target", "docs"])
    def test_input_given_by_neither_flag_nor_config_is_config_error(self, tmp_path, capsys, command, key):
        # the inputs that are given do not exist, so reading any of them first would exit 3
        given = [arg for other in ("source", "target", "docs") if other != key
                 for arg in ("--" + other, str(tmp_path / "absent"))]
        assert main([command, *given, "--out", str(tmp_path)]) == 2
        flags = "--meta or --docs" if (command, key) == ("train", "docs") else "--" + key
        assert capsys.readouterr().err == "config error: %s is required (or [paths] %s in --config)\n" % (flags, key)
        manifest = json.loads((tmp_path / ("manifest-%s.json" % command)).read_text())
        assert (manifest["status"], manifest["input_checksums"]) == ("failed", {})

    def test_bpe_protection_follows_configured_context(self, tmp_path):
        (tmp_path / "run.ini").write_text("[context]\nbreak_token = _SEP_\ncontext_prefix = ctx_\n")
        lines = ["ctx_foo ctx_bar _SEP_ foo bar", "ctx_foo _SEP_ bar foo", "_SEP_ _SEP_ foo"] * 5
        (tmp_path / "in.txt").write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "codes.bpe"
        common = ["--config", str(tmp_path / "run.ini")]
        assert main(["bpe-learn", "--input", str(tmp_path / "in.txt"), "--num-merges", "20",
                     "--out-model", str(model_path)] + common) == 0
        model = load_bpe_model(model_path)
        assert model.merges and not any("_" in piece for pair in model.merges for piece in pair)
        assert main(["bpe-apply", "--model", str(model_path), "--input", str(tmp_path / "in.txt"),
                     "--output", str(tmp_path / "seg.txt")] + common) == 0
        segmented = (tmp_path / "seg.txt").read_text().split()
        assert {"ctx_foo", "ctx_bar", "_SEP_"} <= set(segmented)
        assert not any("_" in tok for tok in segmented if tok not in ("ctx_foo", "ctx_bar", "_SEP_"))

    def test_pronoun_eval_custom_classes(self, tmp_path):
        (tmp_path / "s.src").write_text("dann fiel sie .\n")
        (tmp_path / "s.ref").write_text("then he fell .\n")
        (tmp_path / "s.hyp").write_text("then she fell .\n")
        code = main(["pronoun-eval", "--source", str(tmp_path / "s.src"), "--ref", str(tmp_path / "s.ref"),
                     "--system", "sys=" + str(tmp_path / "s.hyp"), "--pronoun-forms", "sie",
                     "--classes", "he=he|him,she=she|her,it=it,they=they|them",
                     "--export-adjudication", str(tmp_path / "adjudicate.tsv"), "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "eval-pronoun.tsv").read_text()
        assert "he\t1\t0.0" in report  # one occurrence of class he, judged wrong
        assert (tmp_path / "adjudicate.tsv").read_text().splitlines() == [
            "index\tcategory\tsource\treference\tsys", "0\the\tdann fiel sie .\tthen he fell .\tthen she fell ."]
        manifest = json.loads((tmp_path / "manifest-pronoun-eval.json").read_text())
        assert str(tmp_path / "adjudicate.tsv") in manifest["output_checksums"]
        # the system's translations decide the report, so they are hashed beside the source and reference
        assert manifest["input_checksums"] == {str(tmp_path / name): sha256_file(tmp_path / name)
                                               for name in ("s.src", "s.ref", "s.hyp")}

    def _pronoun_eval(self, tmp_path, *flags):
        (tmp_path / "s.src").write_text("dann fiel sie .\n")
        (tmp_path / "s.ref").write_text("then he fell .\n")
        for name in ("x", "y"):
            (tmp_path / (name + ".hyp")).write_text("then %s fell .\n" % ("she" if name == "x" else "he"))
        return main(["pronoun-eval", "--source", str(tmp_path / "s.src"), "--ref", str(tmp_path / "s.ref"),
                     "--pronoun-forms", "sie", "--out", str(tmp_path / "out")] + list(flags))

    def test_pronoun_eval_chi2_of_unknown_system_is_config_error(self, tmp_path, capsys):
        hyp = str(tmp_path / "x.hyp")
        assert self._pronoun_eval(tmp_path, "--system", "a=" + hyp, "--chi2", "a", "b") == 2
        assert "'b'" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == ["manifest-pronoun-eval.json"]  # the failed run's record only
        other = str(tmp_path / "y.hyp")
        assert self._pronoun_eval(tmp_path, "--system", "a=" + hyp, "--system", "b=" + other, "--chi2", "a", "b") == 0

    def test_pronoun_eval_repeated_system_is_config_error(self, tmp_path, capsys):
        flags = ["--system", "a=" + str(tmp_path / "x.hyp"), "--system", "a=" + str(tmp_path / "y.hyp")]
        assert self._pronoun_eval(tmp_path, *flags) == 2
        assert "'a'" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == ["manifest-pronoun-eval.json"]  # the failed run's record only

    def test_pronoun_eval_class_without_forms_is_config_error(self, tmp_path, capsys):
        flags = ["--system", "a=" + str(tmp_path / "x.hyp"), "--classes", "he=he|him,x=,she=she"]
        assert self._pronoun_eval(tmp_path, *flags) == 2
        assert "'x='" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == ["manifest-pronoun-eval.json"]  # the failed run's record only

    def test_pronoun_eval_repeated_class_is_config_error(self, tmp_path, capsys):
        # a repeated name would keep only its last forms and count the first ones as unknown
        flags = ["--system", "a=" + str(tmp_path / "x.hyp"), "--classes", "he=he,he=him,she=she"]
        assert self._pronoun_eval(tmp_path, *flags) == 2
        assert "'he'" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == ["manifest-pronoun-eval.json"]  # the failed run's record only

    def test_pronoun_eval_system_of_other_length_is_data_error(self, tmp_path, capsys):
        (tmp_path / "long.hyp").write_text("then she fell .\nthen it fell .\n")
        assert self._pronoun_eval(tmp_path, "--system", "long=" + str(tmp_path / "long.hyp")) == 3
        assert "'long'" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == ["manifest-pronoun-eval.json"]  # the failed run's record only

    def test_heatmap_of_a_repeated_index_is_data_error(self, tmp_path, capsys):
        attn = tmp_path / "joined.attn.jsonl"
        attn.write_bytes((attention_record() + b"\n") * 2)  # two attention files concatenated
        assert main(["heatmap", "--attn", str(attn), "--index", "0", "--out", str(tmp_path / "out")]) == 3
        assert "record index 0 appears on 2 records of %s" % attn in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("heatmap-*"))
        assert main(["attn-stats", "--attn", str(attn), "--out", str(tmp_path / "out")]) == 0

    def test_heatmap_without_image(self, tmp_path):
        attn = tmp_path / "hyp.attn.jsonl"
        attn.write_bytes(attention_record(source_tokens=["a", "b"], weights=[[0.25, 0.75]]) + b"\n")
        for out, flags, written in (("image", [], ["heatmap-0000.pgm", "heatmap-0000.tsv"]),
                                    ("plain", ["--no-image"], ["heatmap-0000.tsv"])):
            assert main(["heatmap", "--attn", str(attn), "--index", "0", "--out", str(tmp_path / out)] + flags) == 0
            assert sorted(p.name for p in (tmp_path / out).glob("heatmap-*")) == written
            manifest = json.loads((tmp_path / out / "manifest-heatmap-0000.json").read_text())
            assert sorted(manifest["output_checksums"]) == [str(tmp_path / out / name) for name in written]


class TestInputBoundaries:
    """Malformed checkpoints and .meta files end with their documented exit codes."""

    @pytest.fixture
    def corpus(self, tmp_path):
        (tmp_path / "in.src").write_text("a b\nc\n")
        (tmp_path / "in.trg").write_text("x y\nz\n")
        (tmp_path / "in.docs").write_text("d\nd\n")
        (tmp_path / "in.meta").write_text("d\t0\t0\t0\nd\t1\t0\t0\n")
        vocab = Vocabulary.build([["a", "b", "c"]])
        params = init_params(HyperParams(embed_dim=4, hidden_dim=5, attention_dim=3), vocab, vocab)
        save_checkpoint(params, tmp_path / "model.ckpt")
        return tmp_path, params

    def translate(self, d, checkpoint, meta=None):
        argv = ["translate", "--checkpoint", str(checkpoint), "--source", str(d / "in.src"), "--out", str(d / "out")]
        return main(argv + (["--meta", str(meta)] if meta else []))

    def test_valid_checkpoint_translates(self, corpus):
        d, _ = corpus
        assert self.translate(d, d / "model.ckpt", d / "in.meta") == 0
        assert "<pad>" not in (d / "out" / "hyp.trg").read_text()

    def test_huge_max_len_factor_stops_at_max_target_len(self, corpus):
        d, params = corpus
        argv = ["translate", "--checkpoint", str(d / "model.ckpt"), "--source", str(d / "in.src"),
                "--out", str(d / "out"), "--max-len-factor", "1e6", "--beam-size", "1", "--alpha", "0"]
        assert main(argv) == 0
        lines = (d / "out" / "hyp.trg").read_text().splitlines()
        assert [len(line.split()) for line in lines] == [params.hyper.max_target_len] * 2
        manifest = json.loads((d / "out" / "manifest-translate-hyp.json").read_text())
        assert manifest["counters"] == {"sentences": 2, "searches": 2, "truncated": 2, "source_tokens": 3,
                                        "unknown_source_tokens": 0, "ensemble": 1}

    def test_translate_manifest_counts_what_it_did(self, corpus):
        d, _ = corpus
        (d / "rep.src").write_text("a b a\nc zz a\n")  # "zz" is not in the vocabulary
        argv = ["translate", "--source", str(d / "rep.src"), "--out", str(d / "out"),
                "--checkpoint", str(d / "model.ckpt"), "--checkpoint", str(d / "model.ckpt")]
        assert main(argv) == 0
        manifest = json.loads((d / "out" / "manifest-translate-hyp.json").read_text())
        counters = manifest["counters"]
        assert (counters["sentences"], counters["source_tokens"], counters["unknown_source_tokens"]) == (2, 6, 1)
        assert counters["ensemble"] == 2

    @pytest.mark.parametrize("beam", ["1", "4"])
    @pytest.mark.parametrize("members", [1, 2])
    def test_translate_writes_what_the_search_returned(self, corpus, monkeypatch, beam, members):
        d, params = corpus
        checkpoints = [d / ("member%d.ckpt" % seed) for seed in (0, 9)[:members]]
        for seed, path in zip((0, 9), checkpoints):
            member = init_params(dataclasses.replace(params.hyper, rng_seed=seed), params.src_vocab, params.trg_vocab)
            member.tensors["out_b"][model.EOS_ID] -= 0.3  # so that no search ends with an empty target
            save_checkpoint(member, path)
        # "a b c" repeats, and the lines with "zz" and "yy" (both outside the vocabulary) have the same ids
        sources = ["a b c", "c", "b zz a c", "a b c", "b yy a c"]
        (d / "rt.src").write_text("".join(line + "\n" for line in sources))
        searched = []
        for name in ("greedy_decode", "beam_decode"):
            def counted(params_or_ensemble, source_ids, *rest, search=getattr(cli, name)):
                searched.append(source_ids.tobytes())
                return search(params_or_ensemble, source_ids, *rest)
            monkeypatch.setattr(cli, name, counted)
        argv = ["translate", "--source", str(d / "rt.src"), "--out", str(d / "out"), "--beam-size", beam,
                "--alpha", "0" if beam == "1" else "0.6"]
        assert main(argv + [a for c in checkpoints for a in ("--checkpoint", str(c))]) == 0
        exports = read_attention_records(d / "out" / "hyp.attn.jsonl")
        lines = (d / "out" / "hyp.trg").read_text().splitlines()
        models = [load_checkpoint(c) for c in checkpoints]
        config = BeamConfig(beam_size=int(beam), length_norm_alpha=0.0 if beam == "1" else 0.6)
        assert len(exports) == len(lines) == 5
        for source, export, line in zip(sources, exports, lines):
            expected = beam_decode(models, params.src_vocab.encode(source.split()), config)
            assert expected.target_ids
            assert export.source_tokens == source.split()
            assert export.target_tokens == line.split() == expected.target_tokens(params)
            assert export.weights.tobytes() == expected.weights.tobytes()
        ids = [params.src_vocab.encode(source.split()).tobytes() for source in sources]
        assert len(set(ids)) == 3 and sorted(searched) == sorted(set(ids))
        manifest = json.loads((d / "out" / "manifest-translate-hyp.json").read_text())
        assert (manifest["counters"]["sentences"], manifest["counters"]["searches"]) == (5, 3)

    @pytest.mark.parametrize("bad, message", [("", "empty source"),
                                              ("a b c a", "4 source tokens exceed max_source_len 3")])
    def test_bad_source_line_is_data_error_before_any_search(self, corpus, monkeypatch, capsys, bad, message):
        d, params = corpus
        save_checkpoint(init_params(dataclasses.replace(params.hyper, max_source_len=3), params.src_vocab,
                                    params.trg_vocab), d / "short.ckpt")
        for name in ("greedy_decode", "beam_decode"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("searched before the source was checked"))
        (d / "bad.src").write_text("a b\nc\n%s\nb\n" % bad)
        for beam in ("1", "2"):
            assert main(["translate", "--checkpoint", str(d / "short.ckpt"), "--source", str(d / "bad.src"),
                         "--out", str(d / "out"), "--beam-size", beam, "--alpha", "0"]) == 3
            assert capsys.readouterr().err == "data error: %s (%s:3)\n" % (message, d / "bad.src")
            assert not (d / "out" / "hyp.trg").exists()

    def _members(self, d, params, **second):
        """Two checkpoints of the corpus vocabulary: params, and a member whose
        hyperparameters differ by `second`.  Neither ends a search early."""
        paths = [d / "m1.ckpt", d / "m2.ckpt"]
        for hyper, path in ((params.hyper, paths[0]), (dataclasses.replace(params.hyper, rng_seed=9, **second), paths[1])):
            member = init_params(hyper, params.src_vocab, params.trg_vocab)
            member.tensors["out_b"][model.EOS_ID] -= 5.0
            save_checkpoint(member, path)
        return [a for path in paths for a in ("--checkpoint", str(path))]

    @pytest.mark.parametrize("dims", [dict(embed_dim=6), dict(hidden_dim=6), dict(attention_dim=6)])
    def test_ensemble_members_of_other_dims_are_config_error(self, corpus, capsys, dims):
        d, params = corpus
        argv = ["translate", "--source", str(d / "in.src"), "--out", str(d / "out")] + self._members(d, params, **dims)
        assert main(argv) == 2
        assert "member 2" in capsys.readouterr().err
        assert not (d / "out" / "hyp.trg").exists()

    def test_ensemble_members_of_other_length_caps_decode_within_the_smallest(self, corpus):
        d, params = corpus
        checkpoints = self._members(d, params, max_source_len=3, max_target_len=4)
        argv = ["translate", "--out", str(d / "out"), "--max-len-factor", "1e6", "--beam-size", "2"] + checkpoints
        assert main(argv + ["--source", str(d / "in.src")]) == 0
        assert [len(line.split()) for line in (d / "out" / "hyp.trg").read_text().splitlines()] == [4, 4]
        (d / "long.src").write_text("a b c\na b c a\n")
        assert main(argv + ["--source", str(d / "long.src")]) == 3  # 4 tokens exceed the smaller max_source_len

    @pytest.mark.parametrize("damage", ["truncated", "trailing", "bad-utf8", "bad-json", "missing"])
    def test_damaged_checkpoint_is_config_error(self, corpus, damage):
        d, _ = corpus
        raw = (d / "model.ckpt").read_bytes()
        if damage == "missing":
            assert self.translate(d, d / "no.ckpt") == 2
            return
        if damage == "truncated":
            raw = raw[:-10]
        elif damage == "trailing":
            raw = raw + b"\0\0\0\0"
        elif damage == "bad-utf8":
            raw = raw[:8] + b"\xff" + raw[9:]
        else:
            raw = raw[:8] + b"[" + raw[9:]
        (d / "bad.ckpt").write_bytes(raw)
        assert self.translate(d, d / "bad.ckpt") == 2

    def test_swapped_tensor_header_is_config_error(self, corpus, capsys):
        # src_embed and trg_embed have the same shape here, so only their order tells them apart
        d, _ = corpus
        raw = (d / "model.ckpt").read_bytes()
        size = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + size])
        tensors = header["tensors"]
        assert tensors[0]["shape"] == tensors[1]["shape"]
        tensors[0], tensors[1] = tensors[1], tensors[0]
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        (d / "swapped.ckpt").write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + raw[8 + size :])
        assert self.translate(d, d / "swapped.ckpt") == 2
        assert "out of order" in capsys.readouterr().err

    def test_unsupported_checkpoint_version_is_config_error(self, corpus, capsys):
        d, _ = corpus
        raw = (d / "model.ckpt").read_bytes()
        size = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + size])
        header["format_version"] = 3
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        (d / "v3.ckpt").write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + raw[8 + size :])
        assert self.translate(d, d / "v3.ckpt") == 2
        assert "unsupported checkpoint version in %s" % (d / "v3.ckpt") in capsys.readouterr().err

    def test_nan_checkpoint_is_numeric_error(self, corpus):
        d, params = corpus
        params.tensors["out_W"][0, 0] = np.nan
        save_checkpoint(params, d / "nan.ckpt")
        assert self.translate(d, d / "nan.ckpt") == 4
        assert not (d / "out" / "hyp.trg").exists()

    @pytest.mark.parametrize("meta", ["d\t0\t0\nd\t1\t0\t0\n", "d\t0\tx\t0\nd\t1\t0\t0\n", "d\t0\t0\t0\nd\t1\t-1\t0\n"])
    def test_malformed_meta_is_data_error(self, corpus, meta):
        d, _ = corpus
        (d / "bad.meta").write_text(meta)
        assert self.translate(d, d / "model.ckpt", d / "bad.meta") == 3
        train = ["train", "--source", str(d / "in.src"), "--target", str(d / "in.trg"), "--docs", str(d / "in.docs"),
                 "--meta", str(d / "bad.meta"), "--out", str(d / "run"), "--epochs", "1"]
        assert main(train) == 3

    def test_missing_meta_is_data_error(self, corpus, capsys):
        d, _ = corpus
        assert self.translate(d, d / "model.ckpt", d / "typo.meta") == 3
        assert str(d / "typo.meta") in capsys.readouterr().err
        train = ["train", "--source", str(d / "in.src"), "--target", str(d / "in.trg"), "--docs", str(d / "in.docs"),
                 "--meta", str(d / "typo.meta"), "--out", str(d / "run"), "--epochs", "1"]
        assert main(train) == 3
        assert str(d / "typo.meta") in capsys.readouterr().err

    def test_focus_offset_beyond_source_is_data_error(self, corpus, capsys):
        d, _ = corpus
        (d / "bad.meta").write_text("d\t0\t2\t0\nd\t1\t2\t0\n")  # line 2's source has one token
        assert self.translate(d, d / "model.ckpt", d / "bad.meta") == 3
        assert "%s:2" % (d / "bad.meta") in capsys.readouterr().err
        assert not (d / "out" / "hyp.attn.jsonl").exists()

    def test_target_focus_offset_beyond_target_is_data_error(self, corpus, capsys):
        d, _ = corpus
        (d / "bad.meta").write_text("d\t0\t0\t0\nd\t1\t0\t2\n")  # line 2's target has one token
        assert main(["train", "--source", str(d / "in.src"), "--target", str(d / "in.trg"),
                     "--meta", str(d / "bad.meta"), "--out", str(d / "run"), "--epochs", "1"]) == 3
        assert "%s:2" % (d / "bad.meta") in capsys.readouterr().err
        assert not list((d / "run").glob("*.ckpt"))

    def test_train_logs_tokens_and_grad_norm(self, corpus):
        d, _ = corpus
        train = ["train", "--source", str(d / "in.src"), "--target", str(d / "in.trg"), "--docs", str(d / "in.docs"),
                 "--meta", str(d / "in.meta"), "--out", str(d / "run"), "--epochs", "2", "--batch-size", "2",
                 "--embed-dim", "4", "--hidden-dim", "5", "--attention-dim", "3"]
        assert main(train) == 0
        rows = [line.split("\t") for line in (d / "run" / "losses.tsv").read_text().splitlines()]
        assert rows[0] == ["step", "loss", "tokens", "grad_norm"]
        assert [row[0] for row in rows[1:]] == ["1", "2"]
        for row in rows[1:]:
            assert int(row[2]) == (2 + 1) + (1 + 1)  # both targets plus <eos> each
            assert 0.0 < float(row[3]) < float("inf")
        manifest = json.loads((d / "run" / "manifest-train.json").read_text())
        assert manifest["counters"]["target_tokens"] == sum(int(row[2]) for row in rows[1:])

    def test_train_manifest_counts_what_it_did(self, corpus):
        d, _ = corpus
        train = ["train", "--source", str(d / "in.src"), "--target", str(d / "in.trg"), "--docs", str(d / "in.docs"),
                 "--out", str(d / "run"), "--epochs", "3", "--batch-size", "1", "--max-source-len", "1",
                 "--embed-dim", "4", "--hidden-dim", "5", "--attention-dim", "3"]
        assert main(train) == 0
        manifest = json.loads((d / "run" / "manifest-train.json").read_text())
        params = load_checkpoint(manifest["checkpoints"][-1])
        # "a b" exceeds the source cap, so 3 epochs of the one example "c" -> "z"
        assert manifest["counters"] == {"steps": 3, "target_tokens": 3 * 2, "skipped": 1, "src_vocab": 7,
                                        "trg_vocab": 7, "params": params.num_params()}
        assert (manifest["status"], manifest["error"]) == ("ok", "")
        # only the files a run reads are hashed: the .docs without --meta, the .meta with it
        assert sorted(manifest["input_checksums"]) == [str(d / name) for name in ("in.docs", "in.src", "in.trg")]
        assert main(train + ["--meta", str(d / "in.meta"), "--out", str(d / "meta-run")]) == 0
        manifest = json.loads((d / "meta-run" / "manifest-train.json").read_text())
        assert sorted(manifest["input_checksums"]) == [str(d / name) for name in ("in.meta", "in.src", "in.trg")]

    def _train_stopped_at_step(self, d, monkeypatch, error, k=5):
        """Train 6 steps (savepoints after steps 2, 4 and 6) with `error` raised
        at step k; returns the exit code and the manifest, after checking
        that the savepoints and loss rows before step k were written."""
        calls, backward = [], model.backward

        def fail_at_step_k(params, sources, targets):
            calls.append(1)
            if len(calls) == k:
                raise error
            return backward(params, sources, targets)

        monkeypatch.setattr(model, "backward", fail_at_step_k)
        train = ["train", "--source", str(d / "in.src"), "--target", str(d / "in.trg"), "--docs", str(d / "in.docs"),
                 "--out", str(d / "run"), "--epochs", "3", "--batch-size", "1", "--savepoints", "3",
                 "--embed-dim", "4", "--hidden-dim", "5", "--attention-dim", "3"]
        code = main(train)
        rows = (d / "run" / "losses.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == [str(i) for i in range(1, k)]
        assert sorted(p.name for p in (d / "run").glob("*.ckpt")) == ["checkpoint-000002.ckpt",
                                                                      "checkpoint-000004.ckpt"]
        manifest = json.loads((d / "run" / "manifest-train.json").read_text())
        assert manifest["counters"]["steps"] == k - 1
        assert manifest["counters"]["target_tokens"] == sum(int(row.split("\t")[2]) for row in rows)
        assert [Path(p).name for p in manifest["checkpoints"]] == ["checkpoint-000002.ckpt", "checkpoint-000004.ckpt"]
        load_checkpoint(d / "run" / "checkpoint-000004.ckpt")
        return code, manifest

    def test_failed_train_leaves_its_evidence(self, corpus, monkeypatch, capsys):
        d, _ = corpus
        code, manifest = self._train_stopped_at_step(d, monkeypatch, NumericError("non-finite gradient in tensor out_W"))
        assert code == 4
        assert "non-finite gradient in tensor out_W" in capsys.readouterr().err
        assert manifest["status"] == "failed"
        assert manifest["error"] == "non-finite gradient in tensor out_W"

    def test_interrupted_train_leaves_its_evidence(self, corpus, monkeypatch, capsys):
        d, _ = corpus
        code, manifest = self._train_stopped_at_step(d, monkeypatch, KeyboardInterrupt())
        assert code == 130
        assert capsys.readouterr().err == "interrupted\n"  # and no traceback
        assert (manifest["status"], manifest["error"]) == ("interrupted", "KeyboardInterrupt")

    def test_overflowing_train_is_numeric_error(self, tmp_path, capsys):
        # at this learning rate the step-2 pre-activations overflow to inf, and tanh saturates them,
        # so the loss and the gradient stay finite: only numpy's overflow flag shows the failure
        d = str(tmp_path)
        assert main(["synth", "--num-docs", "4", "--units-per-doc", "4", "--seed", "3", "--prefix", "s",
                     "--out", d]) == 0
        assert main(["prepare", "--source", d + "/s.src", "--target", d + "/s.trg", "--docs", d + "/s.docs",
                     "--mode", "2+2", "--prefix", "ext", "--out", d]) == 0
        capsys.readouterr()
        assert main(["train", "--source", d + "/ext.src", "--target", d + "/ext.trg", "--docs", d + "/ext.docs",
                     "--learning-rate", "1e30", "--epochs", "2", "--batch-size", "4", "--embed-dim", "4",
                     "--hidden-dim", "5", "--attention-dim", "3", "--savepoints", "8", "--out", d]) == 4
        assert capsys.readouterr().err == "numeric failure: overflow encountered in matmul in training step 2\n"
        rows = (tmp_path / "losses.tsv").read_text().splitlines()
        assert [row.split("\t")[0] for row in rows[1:]] == ["1"]
        assert [p.name for p in tmp_path.glob("*.ckpt")] == ["checkpoint-000001.ckpt"]
        load_checkpoint(tmp_path / "checkpoint-000001.ckpt")
        manifest = json.loads((tmp_path / "manifest-train.json").read_text())
        assert (manifest["status"], manifest["counters"]["steps"]) == ("failed", 1)
        assert manifest["error"] == "overflow encountered in matmul in training step 2"

    def test_manifest_records_the_trained_hyperparameters(self, corpus):
        d, _ = corpus
        (d / "run.ini").write_text("[model]\nhidden_dim = 9\nepochs = 3\nembed_dim = 4\n")
        train = ["train", "--config", str(d / "run.ini"), "--source", str(d / "in.src"), "--target", str(d / "in.trg"),
                 "--docs", str(d / "in.docs"), "--out", str(d / "run"), "--hidden-dim", "7", "--epochs", "1",
                 "--seed", "5"]
        assert main(train) == 0
        manifest = json.loads((d / "run" / "manifest-train.json").read_text())
        params = load_checkpoint(manifest["checkpoints"][-1])
        assert manifest["config"]["hyper"] == dataclasses.asdict(params.hyper)
        assert (params.hyper.hidden_dim, params.hyper.epochs, params.hyper.embed_dim) == (7, 1, 4)
        assert params.hyper.rng_seed == manifest["config"]["rng_seed"] == 5

    @pytest.mark.parametrize(
        "command, section, key, flag, value",
        [("translate", "beam", "max_len_factor", "--max-len-factor", v) for v in ("nan", "inf", "-1", "1e308")]
        + [("translate", "beam", "max_len_constant", "--max-len-constant", "-1")]
        + [("translate", "beam", "coverage_beta", "--beta", v) for v in ("nan", "inf", "-1")]
        + [("train", "model", "learning_rate", "--learning-rate", v) for v in ("nan", "inf", "-1", "0")]
        + [("synth", "run", "rng_seed", "--seed", "-1")],
    )
    @pytest.mark.parametrize("via", ["flag", "ini"])
    def test_out_of_range_numbers_are_config_errors(self, corpus, capsys, command, section, key, flag, value, via):
        d, _ = corpus
        argv = {
            "translate": ["translate", "--checkpoint", str(d / "model.ckpt"), "--source", str(d / "in.src")],
            "train": ["train", "--source", str(d / "in.src"), "--target", str(d / "in.trg"),
                      "--docs", str(d / "in.docs"), "--epochs", "1"],
            "synth": ["synth", "--num-docs", "1"],
        }[command] + ["--out", str(d / "out")]
        if via == "flag":
            argv += [flag, value]
        else:
            (d / "run.ini").write_text("[%s]\n%s = %s\n" % (section, key, value))
            argv += ["--config", str(d / "run.ini")]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        # 1e308 overflows only when a source length scales it, so the run has started and records its failure
        written = [p.name for p in (d / "out").glob("*")]
        assert written == (["manifest-translate-hyp.json"] if value == "1e308" else [])

    def test_translate_threads_flag_removed(self, corpus):
        d, _ = corpus
        with pytest.raises(SystemExit) as exc:
            main(["translate", "--checkpoint", str(d / "model.ckpt"), "--source", str(d / "in.src"),
                  "--out", str(d / "out"), "--threads", "2"])
        assert exc.value.code == 2

    def test_train_vocab_cap_flag_removed(self, corpus):
        d, _ = corpus
        with pytest.raises(SystemExit) as exc:
            main(["train", "--source", str(d / "in.src"), "--target", str(d / "in.trg"), "--docs", str(d / "in.docs"),
                  "--out", str(d / "out"), "--vocab-cap", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "line",
        [
            attention_record(index=1, drop=["source_tokens"]),
            attention_record(index=1, weights=[[0.5, 0.5]]),
            b'[{"index": 1}]',
            attention_record(index=1, source_tokens=["@"]).replace(b"@", b"\xff"),
            attention_record(index=1, target_tokens=[7]),
            attention_record(index=1, weights=[[float("nan")]]),
            attention_record(index="x", index_in_doc=-3, doc_id=5),
            attention_record(index=True),
            attention_record(index=1, index_in_doc=-3),
            attention_record(index=1, index_in_doc=0.5),
            attention_record(index=1, source_focus_start=False),
            attention_record(index=1, doc_id=5),
            attention_record(index=1, break_token=""),
            attention_record(index=1, break_token="_A B_"),
            attention_record(index=1, break_token=7),
            attention_record(index=1, drop=["source_focus_start"]),
            attention_record(index=1, drop=["break_token"]),
        ],
        ids=["missing-key", "weights-size", "json-array", "bad-utf8", "number-token", "nan-weight", "mistyped-fields",
             "bool-index", "negative-index-in-doc", "float-index-in-doc", "bool-focus-start", "number-doc-id",
             "empty-break-token", "spaced-break-token", "number-break-token", "missing-focus-start",
             "missing-break-token"],
    )
    def test_malformed_attention_record_is_data_error(self, tmp_path, capsys, line):
        valid = attention_record()
        path = tmp_path / "hyp.attn.jsonl"
        path.write_bytes(valid + b"\n" + line + b"\n")
        for command in (["attn-stats"], ["heatmap", "--index", "0"]):
            assert main(command + ["--attn", str(path), "--out", str(tmp_path / "out")]) == 3
            assert "%s:2" % path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [("\ns i\n", "\nsi\n"), ("merges=40", "merges=4O"), ("eow=", "eow"), ("\nwo\t2", "\nwo 2"),
         ("eow=</w>", "eow=<e>"), ("join=@@", "join=~~")],
        ids=["merge-without-space", "non-integer-merges", "field-without-equals", "vocab-without-tab",
             "other-eow-marker", "other-join-marker"],
    )
    def test_malformed_bpe_model_is_data_error(self, tmp_path, old, new):
        text = (DATA / "golden_bpe.model").read_text()
        assert old in text
        (tmp_path / "bad.bpe").write_text(text.replace(old, new, 1))
        argv = ["bpe-apply", "--model", str(tmp_path / "bad.bpe"), "--input", str(DATA / "mini.src"),
                "--output", str(tmp_path / "seg.txt")]
        assert main(argv) == 3

    @pytest.mark.parametrize("merge", ["a ", " a"], ids=["empty-right", "empty-left"])
    def test_empty_merge_symbol_is_data_error(self, tmp_path, merge):
        # threshold splitting once split "a" into "a" and "" forever, so the
        # command runs in a subprocess that a regression times out
        model = tmp_path / "empty.bpe"
        model.write_text("bpe-v1\teow=</w>\tjoin=@@\tmerges=1\tvocab=2\n%s\na\t1\nb\t1\n" % merge)
        (tmp_path / "in.txt").write_text("ab a b\n")
        src = str(Path(ctxnmt.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "ctxnmt.cli", "bpe-apply", "--model", str(model),
                              "--input", str(tmp_path / "in.txt"), "--output", str(tmp_path / "seg.txt"),
                              "--vocab-threshold", "3"], env=env, capture_output=True, text=True, timeout=30)
        assert run.returncode == 3
        assert "%s:2" % model in run.stderr

    def test_unreadable_text_inputs_are_data_errors(self, corpus):
        d, _ = corpus
        (d / "bad.txt").write_bytes(b"a b\n\xff c\n")
        assert main(["translate", "--checkpoint", str(d / "model.ckpt"), "--source", str(d / "bad.txt"),
                     "--out", str(d / "out")]) == 3
        for hyp in ("bad.txt", "missing.txt"):
            assert main(["score", "--hyp", str(d / hyp), "--ref", str(d / "in.trg")]) == 3
        assert main(["bpe-apply", "--model", str(d / "missing.bpe"), "--input", str(d / "in.src"),
                     "--output", str(d / "seg.txt")]) == 3

    @pytest.mark.parametrize("content", [b"seed = 3\n", b"[run]\nrng_seed = \xff\n"], ids=["no-section", "bad-utf8"])
    def test_unparsable_config_is_config_error(self, tmp_path, content):
        (tmp_path / "run.ini").write_bytes(content)
        assert main(["synth", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path), "--num-docs", "1"]) == 2

    @pytest.mark.parametrize("tokens", [["c", "b", "a"], ["a", "b", "c", "d"]], ids=["reordered", "larger"])
    def test_incompatible_ensemble_is_config_error(self, corpus, tokens):
        d, params = corpus
        other = init_params(params.hyper, params.src_vocab, Vocabulary(tokens))
        save_checkpoint(other, d / "other.ckpt")
        argv = ["translate", "--source", str(d / "in.src"), "--out", str(d / "out"), "--checkpoint", str(d / "model.ckpt")]
        assert main(argv + ["--checkpoint", str(d / "model.ckpt")]) == 0
        assert main(argv + ["--checkpoint", str(d / "other.ckpt")]) == 2


# One malformed input per subcommand, each noticed after the manifest path is
# known: (argv, exit code, manifest path).  "{d}" is the input directory; every
# run adds --out {d}/out.
FAILED_RUNS = {
    "synth": (["synth", "--num-docs", "1", "--prefix", "missing/s"], 2, "out/manifest-synth.json"),
    "prepare": (["prepare", "--source", "{d}/in.src", "--target", "{d}/short.trg", "--docs", "{d}/in.docs"],
                3, "out/manifest-prepare.json"),
    "bpe-learn": (["bpe-learn", "--input", "{d}/missing.txt", "--out-model", "{d}/bpe/codes.bpe"],
                  3, "bpe/codes.bpe.manifest.json"),
    "bpe-apply": (["bpe-apply", "--model", "{d}/in.src", "--input", "{d}/in.src", "--output", "{d}/bpe/seg.txt"],
                  3, "bpe/seg.txt.manifest.json"),
    "train": (["train", "--source", "{d}/in.src", "--target", "{d}/in.trg", "--docs", "{d}/in.docs",
               "--savepoints", "0"], 2, "out/manifest-train.json"),
    "translate": (["translate", "--checkpoint", "{d}/model.ckpt", "--source", "{d}/in.src", "--meta", "{d}/short.trg"],
                  3, "out/manifest-translate-hyp.json"),
    "score": (["score", "--hyp", "{d}/in.trg", "--ref", "{d}/in.trg", "--regime", "extended",
               "--report", "{d}/score/plain.tsv"], 2, "score/plain.manifest.json"),
    "attn-stats": (["attn-stats", "--attn", "{d}/in.src"], 3, "out/manifest-attn-stats-attn.json"),
    "pronoun-eval": (["pronoun-eval", "--source", "{d}/in.src", "--ref", "{d}/in.trg", "--system", "s={d}/in.trg",
                      "--classes", "he"], 2, "out/manifest-pronoun-eval.json"),
    "heatmap": (["heatmap", "--attn", "{d}/hyp.attn.jsonl", "--index", "5"], 3, "out/manifest-heatmap-0005.json"),
}


class TestRunner:
    """main writes every run's manifest, also for a failed or interrupted run."""

    @pytest.fixture
    def d(self, tmp_path):
        (tmp_path / "in.src").write_text("a b\nc\n")
        (tmp_path / "in.trg").write_text("x y\nz\n")
        (tmp_path / "short.trg").write_text("x y\n")
        (tmp_path / "in.docs").write_text("d\nd\n")
        (tmp_path / "hyp.attn.jsonl").write_bytes(attention_record() + b"\n")
        vocab = Vocabulary.build([["a", "b", "c"]])
        save_checkpoint(init_params(HyperParams(embed_dim=4, hidden_dim=5, attention_dim=3), vocab, vocab),
                        tmp_path / "model.ckpt")
        return tmp_path

    def test_every_subcommand_has_a_failing_case(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(FAILED_RUNS) == sorted(subparsers.choices)

    @pytest.mark.parametrize("command", sorted(FAILED_RUNS))
    def test_a_failed_run_writes_a_failed_manifest(self, d, capsys, command):
        argv, code, manifest_path = FAILED_RUNS[command]
        assert main([a.format(d=d) for a in argv] + ["--out", str(d / "out")]) == code
        manifest = json.loads((d / manifest_path).read_text())
        assert (manifest["command"], manifest["status"]) == (command, "failed")
        assert manifest["error"] and manifest["error"] in capsys.readouterr().err
        assert manifest["started"] <= manifest["finished"]

    def test_translate_stamps_started_before_decoding(self, d, monkeypatch):
        decoded_at = []

        def stamped_beam_decode(*args, **kwargs):
            decoded_at.append(datetime.datetime.now(datetime.timezone.utc))
            return beam_decode(*args, **kwargs)

        monkeypatch.setattr(cli, "beam_decode", stamped_beam_decode)
        assert main(["translate", "--checkpoint", str(d / "model.ckpt"), "--source", str(d / "in.src"),
                     "--out", str(d / "out"), "--beam-size", "2"]) == 0
        manifest = json.loads((d / "out" / "manifest-translate-hyp.json").read_text())
        assert len(decoded_at) == 2
        assert datetime.datetime.fromisoformat(manifest["started"]) <= decoded_at[0]

    def test_unwritable_output_locations_are_config_errors(self, d, monkeypatch, capsys):
        (d / "blocker").write_text("a file where a directory should be\n")
        monkeypatch.setattr(cli, "beam_decode", lambda *args, **kwargs: pytest.fail("decoded before the out check"))
        assert main(["translate", "--checkpoint", str(d / "model.ckpt"), "--source", str(d / "in.src"),
                     "--out", str(d / "blocker")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write %s: " % (d / "blocker"))
        assert main(["score", "--hyp", str(d / "in.trg"), "--ref", str(d / "in.trg"),
                     "--report", str(d / "blocker" / "sub" / "score.tsv")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write %s: " % (d / "blocker" / "sub"))
        assert (d / "blocker").read_text() == "a file where a directory should be\n"


def run_cli(cwd, *argv):
    """One command in a fresh interpreter, run in `cwd`."""
    src = str(Path(ctxnmt.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ctxnmt.cli", *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


class TestExitCodes:
    """Each error class has one exit code, the one README documents, and a
    real process ends with it and without a traceback."""

    def test_each_error_class_has_a_row_of_its_own_with_its_documented_code(self):
        paragraph = " ".join(README.read_text().split("\n\nExit codes: ", 1)[1].split("\n\n", 1)[0].split())
        documented = {name: int(code) for code, name in re.findall(r"(\d) [a-z ]+ \(`(\w+)`", paragraph)}
        documented["CtxnmtError"] = 1  # "any other `CtxnmtError` exits 1"
        classes = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, CtxnmtError)}
        rows = [(kind, code) for kind, code, _ in cli._FAILURES if kind is not KeyboardInterrupt]
        assert all(isinstance(kind, type) for kind, _ in rows)
        assert sorted(kind.__name__ for kind, _ in rows) == sorted(classes) == sorted(documented)
        assert {kind.__name__: code for kind, code in rows} == documented
        assert len({code for _, code in rows}) == len(rows)

    def test_config_error_exits_2(self, tmp_path):
        run = run_cli(tmp_path, "translate", "--checkpoint", str(DATA / "mini.src"), "--source", str(DATA / "mini.src"))
        assert run.returncode == 2
        assert run.stderr == "config error: not a checkpoint file: %s\n" % (DATA / "mini.src")

    def test_data_error_exits_3(self, tmp_path):
        run = run_cli(tmp_path, "heatmap", "--attn", str(DATA / "mini.src"), "--index", "0")
        assert run.returncode == 3
        assert run.stderr.startswith("data error: bad attention record at %s:1: " % (DATA / "mini.src"))
        assert "Traceback" not in run.stderr

    def test_numeric_failure_exits_4(self, tmp_path):
        d = str(tmp_path)
        assert main(["synth", "--num-docs", "4", "--units-per-doc", "4", "--seed", "3", "--prefix", "s",
                     "--out", d]) == 0
        assert main(["prepare", "--source", d + "/s.src", "--target", d + "/s.trg", "--docs", d + "/s.docs",
                     "--mode", "2+2", "--prefix", "ext", "--out", d]) == 0
        run = run_cli(tmp_path, "train", "--source", "ext.src", "--target", "ext.trg", "--docs", "ext.docs",
                      "--learning-rate", "1e30", "--epochs", "2", "--batch-size", "4", "--embed-dim", "4",
                      "--hidden-dim", "5", "--attention-dim", "3", "--savepoints", "2", "--out", ".")
        assert run.returncode == 4
        assert run.stderr == "numeric failure: overflow encountered in matmul in training step 2\n"


class TestCollectorPause:
    """main runs each command with the cyclic garbage collector paused and
    gives the caller back its own setting, whatever the outcome."""

    @pytest.fixture(params=[True, False], ids=["caller-collects", "caller-paused"])
    def caller(self, request):
        collecting = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize("error, code", [
        (None, 0), (ConfigError("bad"), 2), (DataError("bad"), 3), (NumericError("bad"), 4),
        (KeyboardInterrupt(), 130), (RuntimeError("bad"), None),
    ], ids=["ok", "config", "data", "numeric", "interrupt", "unexpected"])
    def test_command_runs_paused_and_the_caller_setting_returns(self, tmp_path, monkeypatch, capsys, caller,
                                                                error, code):
        seen, generate = [], cli.generate_synthetic_corpus

        def command_body(spec):
            seen.append(gc.isenabled())
            if error is not None:
                raise error
            return generate(spec)

        monkeypatch.setattr(cli, "generate_synthetic_corpus", command_body)
        argv = ["synth", "--num-docs", "1", "--out", str(tmp_path)]
        if code is None:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == code
        assert seen == [False]
        assert gc.isenabled() is caller

    def test_a_parse_error_gives_the_caller_setting_back(self, capsys, caller):
        with pytest.raises(SystemExit):
            main(["synth", "--num-docs", "many"])
        assert gc.isenabled() is caller

    def test_no_command_leaves_more_cyclic_garbage_on_a_larger_input(self, tmp_path):
        # What a command leaves in cycles waits for the caller's next collection, so it must not
        # grow with the input, the epochs or the merges: a long train or translate would hold it all.
        assert main(["synth", "--num-docs", "1", "--out", str(tmp_path / "warm-up")]) == 0
        garbage = {}
        for size, (num_docs, epochs, num_merges) in {"small": (4, 1, 10), "large": (40, 3, 200)}.items():
            d = str(tmp_path / size)
            commands = tiny_pipeline(d, num_docs, epochs, num_merges)
            commands.append(["heatmap", "--attn", d + "/beam.attn.jsonl", "--index", "0"])
            collecting = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                for argv in commands:
                    assert main(argv + ["--out", d]) == 0, argv[0]
                    garbage.setdefault(size, []).append((argv[0], gc.collect()))
            finally:
                if collecting:
                    gc.enable()
        assert garbage["small"] == garbage["large"]


class TestGarbledInputs:
    """Every input file format, truncated or with one byte flipped, ends with
    a documented exit code and never a traceback."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("valid")
        (d / "in.src").write_text("a b\nc\n")
        (d / "in.trg").write_text("x y\nz\n")
        (d / "in.docs").write_text("d\nd\n")
        (d / "in.meta").write_text("d\t0\t0\t0\nd\t1\t0\t0\n")
        vocab = Vocabulary.build([["a", "b", "c"]])
        save_checkpoint(init_params(HyperParams(embed_dim=4, hidden_dim=5, attention_dim=3), vocab, vocab),
                        d / "model.ckpt")
        save_config(RunConfig(analysis=AnalysisConfig(min_freq=1, min_cases=1)), d / "run.ini")
        assert main(["bpe-learn", "--input", str(DATA / "bpe_corpus.txt"), "--num-merges", "20",
                     "--out-model", str(d / "codes.bpe")]) == 0
        assert main(["translate", "--checkpoint", str(d / "model.ckpt"), "--source", str(d / "in.src"),
                     "--meta", str(d / "in.meta"), "--out", str(d), "--beam-size", "2"]) == 0
        return d

    @staticmethod
    def argv(d, fmt, garbled, out):
        """The subcommand that reads `fmt`, with `garbled` in its place."""
        return {
            "bpe": ["bpe-apply", "--model", garbled, "--input", d / "in.src", "--output", out / "seg.txt"],
            "attn": ["attn-stats", "--attn", garbled, "--min-freq", "1"],
            "meta": ["translate", "--checkpoint", d / "model.ckpt", "--source", d / "in.src", "--meta", garbled],
            "config": ["attn-stats", "--config", garbled, "--attn", d / "hyp.attn.jsonl"],
            "checkpoint": ["translate", "--checkpoint", garbled, "--source", d / "in.src", "--beam-size", "2"],
            "corpus": ["prepare", "--source", garbled, "--target", d / "in.trg", "--docs", d / "in.docs",
                       "--mode", "2+2"],
        }[fmt] + ["--out", out]

    FILES = {"bpe": "codes.bpe", "attn": "hyp.attn.jsonl", "meta": "in.meta", "config": "run.ini",
             "checkpoint": "model.ckpt", "corpus": "in.src"}

    @settings(max_examples=60, deadline=None)
    @given(fmt=st.sampled_from(sorted(FILES)), truncate=st.booleans(), where=st.floats(0.0, 1.0),
           mask=st.integers(1, 255))
    def test_garbled_file_ends_with_documented_exit_code(self, valid, fmt, truncate, where, mask):
        raw = bytearray((valid / self.FILES[fmt]).read_bytes())
        pos = min(int(where * len(raw)), len(raw) - 1)
        if truncate:
            del raw[pos:]
        else:
            raw[pos] ^= mask
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "garbled").write_bytes(bytes(raw))
            argv = [str(a) for a in self.argv(valid, fmt, tmp / "garbled", tmp / "out")]
            # a checkpoint checks its own digest, so no damage to one decodes
            assert main(argv) in ((2,) if fmt == "checkpoint" else (0, 2, 3, 4))

    def test_checkpoint_header_length_past_the_file_is_a_config_error(self, valid, tmp_path, capsys):
        # the length field is checked against the file's size before a header of that length is read
        raw = bytearray((valid / "model.ckpt").read_bytes())
        raw[4:8] = (0xFFFFFFF0).to_bytes(4, "little")
        (tmp_path / "garbled.ckpt").write_bytes(bytes(raw))
        argv = [str(a) for a in self.argv(valid, "checkpoint", tmp_path / "garbled.ckpt", tmp_path / "out")]
        tracemalloc.start()
        try:
            assert main(argv) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "malformed checkpoint header" in capsys.readouterr().err
        assert peak < 1024 * 1024
