"""The traced benchmark wraps toolkit functions by name (perfbench/bench_trace.py
WRAPPED).  A rename or a moved import would only show as a zero per-layer
metric in a traced run; here it fails the test suite instead."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ctxnmt import attnstats, cli, config, corpus, decode, metrics, model, subword

ROOT = Path(__file__).resolve().parent.parent
BENCH_TRACE = ROOT / "perfbench" / "bench_trace.py"
MODULES = {"cli": cli, "corpus": corpus, "subword": subword, "model": model, "decode": decode,
           "attnstats": attnstats, "metrics": metrics, "config": config}


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_trace = load_bench_trace()


@pytest.mark.parametrize("module_name, path, span", bench_trace.WRAPPED,
                         ids=["%s@%s" % (span, module) for module, _, span in bench_trace.WRAPPED])
def test_every_wrapped_name_resolves(module_name, path, span):
    owner, attr = bench_trace._resolve(MODULES, module_name, path)
    assert callable(getattr(owner, attr, None)), "%s.%s" % (module_name, path)


def test_wrapped_names_are_the_layer_functions():
    # a caller that imports a name by value must still hold the function of the layer its span names
    for module_name, path, span in bench_trace.WRAPPED:
        layer, *rest = span.split(".")
        if layer in MODULES and len(rest) == 1:
            owner, attr = bench_trace._resolve(MODULES, module_name, path)
            assert getattr(owner, attr) is getattr(MODULES[layer], rest[0]), span


def test_train_and_translate_record_the_traced_spans(tmp_path):
    # a caller that stops calling a wrapped name leaves its span empty
    (tmp_path / "in.src").write_text("a b\nc\nb a c\n")
    (tmp_path / "in.trg").write_text("x y\nz\ny x z\n")
    (tmp_path / "in.docs").write_text("d\nd\nd\n")
    tracer = bench_trace.Tracer(MODULES)
    tracer.install()
    try:
        assert cli.main(["train", "--source", str(tmp_path / "in.src"), "--target", str(tmp_path / "in.trg"),
                         "--docs", str(tmp_path / "in.docs"), "--out", str(tmp_path / "run"), "--epochs", "2",
                         "--batch-size", "2", "--embed-dim", "4", "--hidden-dim", "5", "--attention-dim", "3",
                         "--savepoints", "1"]) == 0
        for beam, alpha in (("1", "0"), ("4", "0.6")):
            assert cli.main(["translate", "--checkpoint", str(tmp_path / "run" / "checkpoint-000004.ckpt"),
                             "--source", str(tmp_path / "in.src"), "--out", str(tmp_path / "run"),
                             "--prefix", "beam" + beam, "--beam-size", beam, "--alpha", alpha]) == 0
    finally:
        tracer.uninstall()
    recorded = {name for name, _, _, _ in tracer.spans}
    for span in ("model.backward", "model.AdamOptimizer.update", "model.encode", "model.init_decoder_state",
                 "model.decode_step", "decode.greedy_decode", "decode.beam_decode", "decode.beam_search",
                 "decode.write_attention_records"):
        assert span in recorded, span
    assert tracer.counters.get("decode.hyp_tokens", 0) > 0


def test_traced_commands_read_every_expected_metric(tmp_path):
    # one tiny pass of every command; a per-layer metric that some workload expects must not read zero
    d = str(tmp_path)
    tiny = ["--embed-dim", "4", "--hidden-dim", "5", "--attention-dim", "3"]
    commands = [
        ["synth", "--num-docs", "4", "--units-per-doc", "4", "--seed", "3", "--prefix", "s"],
        ["prepare", "--source", d + "/s.src", "--target", d + "/s.trg", "--docs", d + "/s.docs", "--mode", "2+2",
         "--prefix", "ext"],
        ["bpe-learn", "--input", d + "/s.src", d + "/s.trg", "--num-merges", "10", "--out-model", d + "/codes.bpe"],
        ["bpe-apply", "--model", d + "/codes.bpe", "--input", d + "/ext.src", "--output", d + "/ext.bpe.src"],
        ["train", "--source", d + "/ext.src", "--target", d + "/ext.trg", "--docs", d + "/ext.docs",
         "--meta", d + "/ext.meta", "--epochs", "2", "--batch-size", "4", "--savepoints", "2"] + tiny,
        ["translate", "--checkpoint", d + "/checkpoint-000008.ckpt", "--source", d + "/ext.src",
         "--meta", d + "/ext.meta", "--prefix", "greedy", "--beam-size", "1", "--alpha", "0"],
        ["translate", "--checkpoint", d + "/checkpoint-000004.ckpt", "--checkpoint", d + "/checkpoint-000008.ckpt",
         "--source", d + "/ext.src", "--meta", d + "/ext.meta", "--prefix", "beam", "--beam-size", "4"],
        ["score", "--hyp", d + "/beam.trg", "--ref", d + "/ext.trg", "--report", d + "/plain.tsv"],
        ["score", "--hyp", d + "/beam.trg", "--ref", d + "/s.trg", "--docs", d + "/s.docs", "--regime", "extended",
         "--segment-mode", "last", "--report", d + "/extended.tsv"],
        ["attn-stats", "--attn", d + "/beam.attn.jsonl", "--model-kind", "2+2"],
        ["pronoun-eval", "--source", d + "/s.src", "--ref", d + "/s.trg", "--system", "greedy=" + d + "/greedy.trg",
         "--pronoun-forms", "sie", "--classes", "he=he,she=she,it=it,they=they"],
    ]
    tracer = bench_trace.Tracer(MODULES)
    tracer.install()
    try:
        for argv in commands:
            assert cli.main(argv + ["--out", d]) == 0, argv[0]
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1, 0.0)
    zero = [name for name, workloads in bench_trace.EXPECTED_NONZERO.items() if workloads and not metrics[name]]
    assert zero == []


def test_an_ensemble_makes_one_encode_per_sentence_and_one_decode_step_per_search_step(tmp_path):
    # two copies of one checkpoint search exactly as the checkpoint alone does, so stepping the
    # members one at a time would show as twice the spans of the one-member run
    (tmp_path / "in.src").write_text("a b\nc\nb a c\n")
    vocab = model.Vocabulary.build([["a", "b", "c"]])
    params = model.init_params(model.HyperParams(embed_dim=4, hidden_dim=5, attention_dim=3), vocab, vocab)
    model.save_checkpoint(params, tmp_path / "m.ckpt")
    counts = []
    for members in (1, 2):
        tracer = bench_trace.Tracer(MODULES)
        tracer.install()
        try:
            assert cli.main(["translate", "--source", str(tmp_path / "in.src"), "--out", str(tmp_path),
                             "--beam-size", "4"] + ["--checkpoint", str(tmp_path / "m.ckpt")] * members) == 0
        finally:
            tracer.uninstall()
        names = [name for name, _, _, _ in tracer.spans]
        counts.append((names.count("model.encode"), names.count("model.decode_step")))
    assert counts[1] == counts[0] and counts[0][0] == 3 and counts[0][1] >= 3


# pronoun-train is left out: whether its 2+2 system reaches the accuracy it checks depends on the seed
@pytest.mark.parametrize("workload", ["prep-analyze", "ensemble-beam"])
def test_workload_passes_its_output_checks(workload):
    # one untraced pass: prep-analyze checks the merge count, the BPE round trip and the BLEU range;
    # ensemble-beam checks the translated line counts, attention rows that sum to 1 and BLEU > 0
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, run.stderr
