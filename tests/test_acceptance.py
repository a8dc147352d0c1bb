"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the experiment in criterion 8 trains three systems on a 20,000-unit
synthetic corpus and takes a few minutes single-threaded.
"""

import filecmp
import time
from collections import Counter
from pathlib import Path

import numpy as np

from ctxnmt.attnstats import (
    MODEL_TWO_SIDED,
    corpus_external_proportion,
    majority_peak_stats,
    partition,
    word_mass_stats,
    word_peak_stats,
)
from ctxnmt.cli import main
from ctxnmt.corpus import (
    ContextConfig,
    Marking,
    SynthSpec,
    TranslationUnit,
    extend_corpus,
    generate_synthetic_corpus,
)
from ctxnmt.decode import (
    AttentionExport,
    SEGMENT_LAST,
    extract_scored_segment,
    greedy_decode,
)
from ctxnmt.metrics import (
    bleu,
    chi_square_2x2,
    chrf,
    extract_pronoun_occurrences,
    judge_occurrences,
    pronoun_class,
)
from ctxnmt.model import (
    HyperParams,
    Vocabulary,
    grad_check,
    init_params,
    train,
)
from ctxnmt.subword import apply_bpe_line, learn_bpe, load_bpe_model, revert_bpe, word_frequencies

from attention_checks import assert_attention_rows
from oracles import (
    oracle_bleu,
    oracle_chrf,
    oracle_corpus_external_proportion,
    oracle_majority_peak_stats,
    oracle_partition,
    oracle_word_mass_stats,
    oracle_word_peak_stats,
)

DATA = Path(__file__).parent / "data"


def report(criterion, text):
    print("\nACCEPTANCE %-2s PASS: %s" % (criterion, text))


def test_criterion_01_extension_goldens(tmp_path):
    """Prefix-marked and two-sided prepared data match the committed goldens byte-exactly."""
    t0 = time.time()
    for mode, golden in (("2+1-prefix", "golden_prefix"), ("2+2", "golden_break22")):
        out = tmp_path / mode
        code = main([
            "prepare", "--source", str(DATA / "mini.src"), "--target", str(DATA / "mini.trg"),
            "--docs", str(DATA / "mini.docs"), "--mode", mode, "--out", str(out), "--prefix", "ext",
        ])
        assert code == 0
        assert (out / "ext.src").read_bytes() == (DATA / (golden + ".src")).read_bytes()
        assert (out / "ext.trg").read_bytes() == (DATA / (golden + ".trg")).read_bytes()
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "context-extension goldens byte-exact in %.2fs" % elapsed)


def test_criterion_02_gradient_verification():
    """Analytic gradients match central finite differences (eps=1e-4, float64)."""
    t0 = time.time()
    src_vocab = Vocabulary.build([["a", "b", "c", "d", "e", "f"]])
    trg_vocab = Vocabulary.build([["u", "v", "w", "x", "y"]])
    hp = HyperParams(embed_dim=8, hidden_dim=8, attention_dim=6, rng_seed=3)
    params = init_params(hp, src_vocab, trg_vocab)
    assert params.num_params() <= 10 ** 4
    err = grad_check(
        params,
        [src_vocab.encode(["a", "b", "c", "d", "e"])],
        [trg_vocab.encode(["u", "v", "w", "x"])],
        epsilon=1e-4,
        num_coords=250,
        seed=7,
    )
    elapsed = time.time() - t0
    assert err < 1e-3
    assert elapsed < 30.0
    report(2, "max relative gradient error %.2e over 250 coords (%d params, %.1fs)"
           % (err, params.num_params(), elapsed))


def test_criterion_03_attention_normalization():
    """Every attention row sums to 1 within 1e-6 across a 1,000-sentence decode."""
    src_vocab = Vocabulary.build([list("abcdefgh")])
    trg_vocab = Vocabulary.build([list("uvwxyz")])
    hp = HyperParams(embed_dim=10, hidden_dim=12, attention_dim=8, rng_seed=5)
    params = init_params(hp, src_vocab, trg_vocab)
    ensemble = [params, init_params(HyperParams(embed_dim=10, hidden_dim=12, attention_dim=8, rng_seed=6),
                                    src_vocab, trg_vocab)]
    rng = np.random.default_rng(0)
    letters = list("abcdefgh")
    rows = 0
    for i in range(1000):
        tokens = [letters[j] for j in rng.integers(0, len(letters), size=rng.integers(1, 9))]
        ids = src_vocab.encode(tokens)
        models = ensemble if i % 4 == 0 else params
        result = greedy_decode(models, ids, max_len=12)
        if len(result.target_ids) == 0:
            continue
        assert_attention_rows(result.weights, len(result.target_ids), len(ids))
        rows += result.weights.shape[0]
    assert rows > 1000
    report(3, "%d attention rows over 1000 decodes all sum to 1 within 1e-6" % rows)


def test_criterion_04_bpe_round_trip_and_golden():
    """Apply-then-revert is the identity on 1e5 random tokens; golden merges exact."""
    lines = [l.split() for l in (DATA / "bpe_corpus.txt").read_text().splitlines()]
    model = learn_bpe(word_frequencies(lines), 40)
    golden = load_bpe_model(DATA / "golden_bpe.model")
    assert model.merges == golden.merges
    assert model.subword_vocab == golden.subword_vocab

    rng = np.random.default_rng(123)
    alphabet = list("abcdefghijklmnopqrstuvwxyz.!?-äöüß")
    tokens = [
        "".join(alphabet[j] for j in rng.integers(0, len(alphabet), size=rng.integers(1, 11)))
        for _ in range(100_000)
    ]
    for threshold in (0, 3):
        segmented = apply_bpe_line(model, tokens, vocab_threshold=threshold)
        assert revert_bpe(segmented) == tokens
    report(4, "bpe round trip identity on 100000 random tokens (thresholds 0 and 3); golden merges exact")


def test_criterion_05_metric_oracles():
    """bleu/chrf match brute-force oracles to 1e-9; identity = 1.0; swap property."""
    pairs = [l.split("\t") for l in (DATA / "metric_pairs.tsv").read_text().splitlines()]
    assert len(pairs) == 20
    hyps = [p[0].split() for p in pairs]
    refs = [p[1].split() for p in pairs]

    assert abs(bleu(hyps, refs).score - oracle_bleu(hyps, refs)) < 1e-9
    result = chrf(hyps, refs)
    score, precision, recall = oracle_chrf(hyps, refs)
    assert abs(result.score - score) < 1e-9
    assert abs(result.precision - precision) < 1e-9
    assert abs(result.recall - recall) < 1e-9

    assert bleu(refs, refs).score == 1.0
    assert chrf(refs, refs).score == 1.0

    rng = np.random.default_rng(9)
    vocabulary = ["the", "cat", "dog", "sat", ".", "!", "a", "on"]
    for _ in range(100):
        h = [vocabulary[i] for i in rng.integers(0, len(vocabulary), size=rng.integers(1, 9))]
        r = [vocabulary[i] for i in rng.integers(0, len(vocabulary), size=rng.integers(1, 9))]
        forward = chrf([h], [r])
        backward = chrf([r], [h])
        assert abs(forward.precision - backward.recall) < 1e-12
        assert abs(forward.recall - backward.precision) < 1e-12
    report(5, "metrics match oracles to 1e-9 on 20 committed pairs; identity=1.0; swap property on 100 pairs")


def test_criterion_06_attention_statistics_oracle():
    """Aggregations agree exactly with naive recomputation on 1,000 random records."""
    rng = np.random.default_rng(31)
    words = ["yeah", "oh", "yes", ".", "?", "no", "what", "-", "here", "good"]
    partitions = []
    oracle_parts = []
    for idx in range(1000):
        n_src = rng.integers(2, 9)
        n_trg = rng.integers(1, 8)
        src = ["_BREAK_" if rng.random() < 0.2 else "s%d" % rng.integers(5) for _ in range(n_src)]
        trg = ["_BREAK_" if rng.random() < 0.15 else words[rng.integers(len(words))] for _ in range(n_trg)]
        export = AttentionExport(
            index=idx, doc_id="d", index_in_doc=idx,
            source_tokens=src, target_tokens=trg,
            weights=rng.dirichlet(np.ones(n_src), size=n_trg),
            source_focus_start=0,
        )
        partitions.extend(partition(export, MODEL_TWO_SIDED))
        oracle_parts.extend(oracle_partition(export, MODEL_TWO_SIDED))

    mass = word_mass_stats(partitions, min_freq=5)
    expected_mass = oracle_word_mass_stats(oracle_parts, min_freq=5)
    assert {r.word for r in mass.rows} == set(expected_mass)
    for row in mass.rows:
        freq, ext, internal, prop, pos = expected_mass[row.word]
        assert row.freq == freq and row.freq >= 5
        assert abs(row.external - ext) < 1e-12
        assert abs(row.internal - internal) < 1e-12
        assert abs(row.proportion - prop) < 1e-12
        assert abs(row.mean_position - pos) < 1e-12

    peaks = word_peak_stats(partitions, min_freq=5)
    expected_peaks = oracle_word_peak_stats(oracle_parts, min_freq=5)
    assert {r.word for r in peaks.rows} == set(expected_peaks)
    for row in peaks.rows:
        freq, ext, internal, prop, pos = expected_peaks[row.word]
        assert row.freq == freq
        assert abs(row.external - ext) < 1e-12
        assert abs(row.proportion - prop) < 1e-12

    majority = majority_peak_stats(partitions, min_cases=5)
    expected_major = oracle_majority_peak_stats(oracle_parts, min_cases=5)
    assert {r.word for r in majority} == set(expected_major)
    for row in majority:
        wins, freq, prop = expected_major[row.word]
        assert (row.freq_ext_peak, row.freq) == (wins, freq)
        assert row.freq_ext_peak >= 5
        assert abs(row.proportion - prop) < 1e-12

    assert abs(corpus_external_proportion(partitions) - oracle_corpus_external_proportion(oracle_parts)) < 1e-12
    report(6, "mass/peak/majority/corpus statistics equal brute force on 1000 random records; filters enforced")


def test_criterion_07_copy_task():
    """A tiny model reaches >= 95% exact-match greedy decoding on a 50-unit copy task."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    alphabet = list("abcdefghij")
    units = []
    for i in range(50):
        toks = tuple(rng.choice(alphabet, size=rng.integers(1, 8)))
        units.append(TranslationUnit(toks, toks, "copy", i))
    examples = extend_corpus(units, ContextConfig(0, 0, Marking.BREAK))
    vocab = Vocabulary.build([e.source_tokens for e in examples])
    hp = HyperParams(embed_dim=24, hidden_dim=32, attention_dim=24, learning_rate=0.005,
                     batch_size=5, epochs=60, rng_seed=7)
    params = init_params(hp, vocab, vocab)
    train(params, examples, savepoint_schedule=1)
    hits = 0
    for unit in units:
        ids = vocab.encode(unit.source_tokens)
        result = greedy_decode(params, ids, max_len=20)
        hits += result.target_ids == list(ids)
    elapsed = time.time() - t0
    assert hits / len(units) >= 0.95
    assert elapsed < 120.0
    report(7, "copy task exact match %d/50 in %.1fs" % (hits, elapsed))


SYNTH_CLASSES = {"he": ("he",), "she": ("she",), "it": ("it",), "they": ("they",)}


def test_criterion_08_synthetic_pronoun_experiment():
    """Directional analogue of the plural-row improvement: context models
    disambiguate the synthetic pronoun, the baseline cannot."""
    t0 = time.time()
    spec = SynthSpec(num_docs=2500, units_per_doc=8, rng_seed=17)
    units = generate_synthetic_corpus(spec)
    assert len(units) == 20000
    split = int(0.9 * spec.num_docs)
    train_units = [u for u in units if int(u.doc_id.split("-")[1]) < split]
    test_units = [u for u in units if int(u.doc_id.split("-")[1]) >= split]

    systems = {
        "baseline": ContextConfig(0, 0, Marking.BREAK),
        "2+1-break": ContextConfig(1, 0, Marking.BREAK),
        "2+2": ContextConfig(1, 1, Marking.BREAK),
    }
    hyps = {}
    for name, context in systems.items():
        train_ex = extend_corpus(train_units, context)
        test_ex = extend_corpus(test_units, context)
        src_vocab = Vocabulary.build((e.source_tokens for e in train_ex))
        trg_vocab = Vocabulary.build((e.target_tokens for e in train_ex))
        hp = HyperParams(embed_dim=24, hidden_dim=32, attention_dim=24,
                         learning_rate=0.004, batch_size=16, epochs=2, rng_seed=11)
        params = init_params(hp, src_vocab, trg_vocab)
        train(params, train_ex, savepoint_schedule=1)
        outs, searched = [], {}  # each distinct source is decoded once, as translate does
        for ex in test_ex:
            ids = src_vocab.encode(ex.source_tokens)
            key = ids.tobytes()
            if key not in searched:
                result = greedy_decode(params, ids, max_len=3 * len(ids) + 5)
                searched[key] = extract_scored_segment(result.target_tokens(params), SEGMENT_LAST)
            outs.append(searched[key])
        hyps[name] = outs

    src_lines = [list(u.source_tokens) for u in test_units]
    ref_lines = [list(u.target_tokens) for u in test_units]
    occurrences = extract_pronoun_occurrences(src_lines, ref_lines, hyps, pronoun_forms=("sie",))
    judge_occurrences(occurrences, SYNTH_CLASSES)
    n = len(occurrences)
    assert n >= 900

    ref_counts = Counter(pronoun_class(o.reference_tokens, SYNTH_CLASSES) for o in occurrences)
    majority_correct = max(ref_counts.values())
    correct = {name: sum(1 for o in occurrences if o.correct[name]) for name in systems}

    # baseline indistinguishable from the majority-class rate
    stat_base, significant_base = chi_square_2x2(
        correct["baseline"], n - correct["baseline"], majority_correct, n - majority_correct
    )
    assert not significant_base

    # context models reach >= 90% and improve significantly
    for name in ("2+1-break", "2+2"):
        assert correct[name] / n >= 0.90
        stat, significant = chi_square_2x2(
            correct[name], n - correct[name], correct["baseline"], n - correct["baseline"]
        )
        assert significant

    elapsed = time.time() - t0
    assert elapsed < 900.0
    report(8, "baseline %.1f%% ~ majority %.1f%% (chi2=%.2f n.s.); 2+1-break %.1f%%, 2+2 %.1f%% (both significant); %.0fs"
           % (100 * correct["baseline"] / n, 100 * majority_correct / n, stat_base,
              100 * correct["2+1-break"] / n, 100 * correct["2+2"] / n, elapsed))


def test_criterion_09_chi_square_correctness():
    """Statistic 0 on proportional tables; the plural-row counts are not significant."""
    stat, significant = chi_square_2x2(10, 10, 10, 10)
    assert stat == 0 and not significant
    stat, significant = chi_square_2x2(60, 26, 68, 18)
    assert not significant
    report(9, "chi2: proportional table -> 0; counts 60/26 vs 68/18 -> %.3f (not significant)" % stat)


def _pipeline(root: Path, seed: int):
    """synth -> bpe -> prepare -> train -> translate -> score -> attn-stats."""
    data = root / "data"
    run = root / "run"
    calls = [
        ["synth", "--out", str(data), "--num-docs", "40", "--units-per-doc", "6", "--seed", str(seed)],
        ["bpe-learn", "--input", str(data / "synth.src"), str(data / "synth.trg"),
         "--num-merges", "60", "--out-model", str(data / "codes.bpe")],
        ["bpe-apply", "--model", str(data / "codes.bpe"), "--input", str(data / "synth.src"),
         "--output", str(data / "bpe.src")],
        ["bpe-apply", "--model", str(data / "codes.bpe"), "--input", str(data / "synth.trg"),
         "--output", str(data / "bpe.trg")],
    ]
    for call in calls:
        assert main(call) == 0
    # docs file is unchanged by segmentation
    (data / "bpe.docs").write_bytes((data / "synth.docs").read_bytes())
    calls = [
        ["prepare", "--source", str(data / "bpe.src"), "--target", str(data / "bpe.trg"),
         "--docs", str(data / "bpe.docs"), "--mode", "2+2", "--out", str(data), "--prefix", "ext"],
        ["train", "--source", str(data / "ext.src"), "--target", str(data / "ext.trg"),
         "--docs", str(data / "ext.docs"), "--meta", str(data / "ext.meta"),
         "--out", str(run), "--seed", str(seed), "--epochs", "1", "--batch-size", "8",
         "--embed-dim", "12", "--hidden-dim", "16", "--attention-dim", "12", "--savepoints", "2"],
    ]
    for call in calls:
        assert main(call) == 0
    checkpoints = sorted(run.glob("checkpoint-*.ckpt"))
    translate = ["translate", "--source", str(data / "ext.src"), "--meta", str(data / "ext.meta"),
                 "--out", str(run), "--prefix", "hyp", "--beam-size", "2", "--alpha", "0.6"]
    for ckpt in checkpoints:
        translate += ["--checkpoint", str(ckpt)]
    assert main(translate) == 0
    assert main(["score", "--hyp", str(run / "hyp.trg"), "--ref", str(data / "ext.trg"),
                 "--segment-mode", "all", "--name", "2+2", "--report", str(run / "score.tsv")]) == 0
    assert main(["attn-stats", "--attn", str(run / "hyp.attn.jsonl"), "--model-kind", "2+2",
                 "--out", str(run), "--min-freq", "2", "--min-cases", "1"]) == 0


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Two runs with identical config and seed produce byte-identical artifacts."""
    for sub in ("a", "b"):
        _pipeline(tmp_path / sub, seed=33)
    compared = 0
    for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
        if rel.name.startswith("manifest") or rel.name.endswith("manifest.json"):
            continue  # manifests carry timestamps by design
        a = tmp_path / "a" / rel
        b = tmp_path / "b" / rel
        assert b.exists(), "second run is missing %s" % rel
        assert filecmp.cmp(a, b, shallow=False), "artifact differs between runs: %s" % rel
        compared += 1
    assert compared >= 15
    report(10, "two end-to-end runs byte-identical across %d artifacts (data, checkpoints, reports)" % compared)
