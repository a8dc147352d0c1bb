"""Metric and pronoun-evaluation tests, checked against brute-force oracles."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxnmt import metrics
from ctxnmt.cli import main
from ctxnmt.errors import DataError
from ctxnmt.metrics import (
    CATEGORY_FEM_SINGULAR,
    CATEGORY_PLURAL,
    CATEGORY_POLITE_IMPERATIVE,
    CATEGORY_POLITE_OTHER,
    PronounOccurrence,
    bleu,
    categorize_pronoun,
    chi_square_2x2,
    chrf,
    extract_pronoun_occurrences,
    format_pronoun_report,
    format_score_report,
    judge_occurrences,
    judge_pronoun,
    pronoun_accuracy,
    score_extended,
)

from oracles import oracle_bleu, oracle_bleu_counts, oracle_chi_square, oracle_chrf

DATA = Path(__file__).parent / "data"


def committed_pairs():
    pairs = [l.split("\t") for l in (DATA / "metric_pairs.tsv").read_text().splitlines()]
    hyps = [p[0].split() for p in pairs]
    refs = [p[1].split() for p in pairs]
    return hyps, refs


class TestBleu:
    def test_identity_corpus(self):
        hyps, _ = committed_pairs()
        result = bleu(hyps, hyps)
        assert result.score == 1.0
        assert result.brevity_penalty == 1.0

    def test_empty_hypotheses(self):
        assert bleu([[]], [["a", "b"]]).score == 0.0

    def test_clipping(self):
        result = bleu([["the", "the", "the"]], [["the", "cat"]])
        assert result.precisions[0] == pytest.approx(1 / 3)
        assert result.score == 0.0  # no bigram match

    def test_matches_oracle_on_committed_pairs(self):
        hyps, refs = committed_pairs()
        assert bleu(hyps, refs).score == pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)

    def test_frozen_golden(self):
        hyps, refs = committed_pairs()
        golden = json.loads((DATA / "golden_metrics.json").read_text())
        assert bleu(hyps, refs).score == pytest.approx(golden["bleu"], abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            bleu([["a"]], [])


class TestChrf:
    def test_identity_corpus(self):
        hyps, _ = committed_pairs()
        result = chrf(hyps, hyps)
        assert result.score == 1.0
        assert result.precision == 1.0
        assert result.recall == 1.0

    def test_disjoint(self):
        assert chrf([["abc"]], [["xyz"]]).score == 0.0

    def test_matches_oracle_on_committed_pairs(self):
        hyps, refs = committed_pairs()
        result = chrf(hyps, refs)
        score, precision, recall = oracle_chrf(hyps, refs)
        assert result.score == pytest.approx(score, abs=1e-9)
        assert result.precision == pytest.approx(precision, abs=1e-9)
        assert result.recall == pytest.approx(recall, abs=1e-9)

    def test_frozen_golden(self):
        hyps, refs = committed_pairs()
        golden = json.loads((DATA / "golden_metrics.json").read_text())
        result = chrf(hyps, refs)
        assert result.score == pytest.approx(golden["chrf"], abs=1e-9)
        assert result.precision == pytest.approx(golden["chrf_precision"], abs=1e-9)
        assert result.recall == pytest.approx(golden["chrf_recall"], abs=1e-9)


token_st = st.text(alphabet="abcde .!", min_size=1, max_size=4).map(str.strip).filter(bool)
sent_st = st.lists(token_st, min_size=1, max_size=8)
corpus_st = st.lists(sent_st, min_size=1, max_size=6)


@settings(max_examples=100)
@given(corpus=corpus_st)
def test_identity_scores_one(corpus):
    assert bleu(corpus, corpus).score == pytest.approx(1.0)
    assert chrf(corpus, corpus).score == pytest.approx(1.0)


@settings(max_examples=100)
@given(hyps=corpus_st, refs=corpus_st)
def test_chrf_swap_property(hyps, refs):
    n = min(len(hyps), len(refs))
    hyps, refs = hyps[:n], refs[:n]
    forward = chrf(hyps, refs)
    backward = chrf(refs, hyps)
    assert forward.precision == pytest.approx(backward.recall, abs=1e-12)
    assert forward.recall == pytest.approx(backward.precision, abs=1e-12)


@settings(max_examples=60)
@given(corpus=corpus_st, extra=token_st)
def test_bleu_appending_wrong_token_never_gains(corpus, extra):
    wrong = extra + "zzz"  # guaranteed absent from references
    degraded = [list(corpus[0]) + [wrong]] + [list(s) for s in corpus[1:]]
    assert bleu(degraded, corpus).score <= bleu(corpus, corpus).score


# a multi-byte character, a combining mark and a character outside the BMP;
# segments may be empty or shorter than every n-gram order
rich_token_st = st.one_of(
    st.sampled_from(["a", "é", "e\u0301", "\U0001D11E"]),
    st.text(alphabet="ab\u00e9\u0301\U0001D11E", min_size=1, max_size=4),
)
rich_segment_st = st.lists(rich_token_st, max_size=6)
rich_pairs_st = st.lists(st.tuples(rich_segment_st, rich_segment_st), max_size=8)


@pytest.mark.parametrize("chunk_symbols", [None, 1, 5], ids=["default-chunks", "chunk-1", "chunk-5"])
@settings(max_examples=150, deadline=None)
@given(pairs=rich_pairs_st)
def test_counts_match_oracles(chunk_symbols, pairs):
    hyps = [hyp for hyp, _ in pairs]
    refs = [ref for _, ref in pairs]
    with pytest.MonkeyPatch.context() as mp:
        if chunk_symbols is not None:
            mp.setattr(metrics, "_CHUNK_SYMBOLS", chunk_symbols)
        b = bleu(hyps, refs)
        c = chrf(hyps, refs)
    score, precision, recall = oracle_chrf(hyps, refs)
    assert c.score == pytest.approx(score, abs=1e-12)
    assert c.precision == pytest.approx(precision, abs=1e-12)
    assert c.recall == pytest.approx(recall, abs=1e-12)
    assert b.score == pytest.approx(oracle_bleu(hyps, refs), abs=1e-12)
    expected = [match / total if total else 0.0 for match, total in oracle_bleu_counts(hyps, refs)]
    assert b.precisions == pytest.approx(expected, abs=1e-12)


def test_wide_alphabet_chrf_matches_oracle():
    # 2,048 = 2**11 code points make the polynomial 6-gram ids reach 2**66;
    # wrapped to int64, the keys of the hypothesis 6-gram (c0, c9, c7, c5, c3, c1)
    # and the reference 6-gram that starts with c256 instead would coincide
    chars = [chr(0x4E00 + k) for k in range(2048)]
    tail = [chars[k] for k in (9, 7, 5, 3, 1)]
    hyp = ["".join([chars[0]] + tail + chars[1000:1020])]
    ref = ["".join(chars + [chars[256]] + tail)]
    result = chrf([hyp], [ref])
    score, precision, recall = oracle_chrf([hyp], [ref])
    assert (result.score, result.precision, result.recall) == pytest.approx((score, precision, recall), abs=1e-12)
    assert result.precision < 1.0


def test_wide_vocabulary_bleu_matches_oracle():
    # 65,536 = 2**16 distinct words make the polynomial 4-gram ids reach 2**64;
    # wrapped to int64, the keys of the hypothesis 4-gram (w0, w1, w2, w3) and
    # the reference 4-gram that starts with w32768 instead would coincide
    words = ["w%d" % k for k in range(2**16)]
    hyp = words[:10]
    ref = words[4:] + [words[32768]] + words[1:4]
    result = bleu([hyp], [ref])
    assert result.score == pytest.approx(oracle_bleu([hyp], [ref]), abs=1e-12)
    expected = [match / total for match, total in oracle_bleu_counts([hyp], [ref])]
    assert result.precisions == pytest.approx(expected, abs=1e-12)
    assert result.precisions[3] == 3 / 7  # (w4..w7), (w5..w8), (w6..w9)


def brute_force_windows(units, doc_ids, window):
    """Each unit with up to window - 1 units before it that share its document
    without a boundary in between, concatenated, break tokens removed."""
    segments = []
    for i in range(len(units)):
        segment = []
        for j in range(max(0, i - window + 1), i + 1):
            if all(doc_ids[k] == doc_ids[i] for k in range(j, i + 1)):
                segment += [t for t in units[j] if t != "_BREAK_"]
        segments.append(segment)
    return segments


extended_unit_st = st.lists(st.sampled_from(["a", "b", "ab", "\u00e9", "_BREAK_"]), max_size=4)
extended_units_st = st.lists(
    st.tuples(extended_unit_st, extended_unit_st, st.sampled_from(["d1", "d2", "d3"])), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(units=extended_units_st, window=st.integers(1, 3))
@example(units=[(["_BREAK_"], ["a"], "d1"), ([], ["_BREAK_", "_BREAK_"], "d1"), (["a", "b"], ["a", "b"], "d1")],
         window=2)
@example(units=[(["a", "b"], ["a", "b"], "d1"), (["a"], ["a"], "d2"), (["b"], ["b"], "d1")], window=3)
def test_score_extended_matches_oracles(units, window):
    hyp_units = [hyp for hyp, _, _ in units]
    ref_units = [ref for _, ref, _ in units]
    doc_ids = [doc for _, _, doc in units]
    hyps = brute_force_windows(hyp_units, doc_ids, window)
    refs = brute_force_windows(ref_units, doc_ids, window)
    b, c = score_extended(hyp_units, ref_units, doc_ids, window=window)
    assert (b.hyp_length, b.ref_length) == (sum(map(len, hyps)), sum(map(len, refs)))
    assert b.score == pytest.approx(oracle_bleu(hyps, refs), abs=1e-12)
    assert (c.score, c.precision, c.recall) == pytest.approx(oracle_chrf(hyps, refs), abs=1e-12)


def test_score_reports_are_frozen(tmp_path, capsys):
    pairs = [line.split("\t") for line in (DATA / "metric_pairs.tsv").read_text().splitlines()]
    (tmp_path / "pairs.hyp").write_text("".join(h + "\n" for h, _ in pairs))
    (tmp_path / "pairs.ref").write_text("".join(r + "\n" for _, r in pairs))
    reversed_units = (DATA / "mini.trg").read_text().splitlines()[::-1]
    (tmp_path / "mini.hyp").write_text("".join(line + "\n" for line in reversed_units))
    assert main(["score", "--hyp", str(tmp_path / "pairs.hyp"), "--ref", str(tmp_path / "pairs.ref"),
                 "--name", "pairs"]) == 0
    assert main(["score", "--hyp", str(tmp_path / "mini.hyp"), "--ref", str(DATA / "mini.trg"),
                 "--docs", str(DATA / "mini.docs"), "--regime", "extended", "--name", "mini-extended"]) == 0
    assert capsys.readouterr().out == (
        "system\tBLEU\tchrF3\tprecision\trecall\n"
        "pairs\t45.33\t66.93\t73.33\t66.29\n"
        "system\tBLEU\tchrF3\tprecision\trecall\n"
        "mini-extended\t29.54\t43.12\t45.27\t42.89\n"
    )


class TestScoreExtended:
    def test_sliding_pairs_identity(self):
        units = [["a", "b"], ["c"], ["d", "e"]]
        docs = ["m", "m", "m"]
        b, c = score_extended(units, units, docs, window=2)
        assert b.score == pytest.approx(1.0)
        assert c.score == pytest.approx(1.0)

    def test_window_respects_documents(self):
        hyp = [["x"], ["y"]]
        ref = [["x"], ["x"]]  # pairing across docs would inflate the overlap
        b_two_docs, _ = score_extended(hyp, ref, ["d1", "d2"], window=2)
        b_one_doc, _ = score_extended(hyp, ref, ["d", "d"], window=2)
        assert b_two_docs.hyp_length == 2  # (x), (y): no concatenation
        assert b_one_doc.hyp_length == 3  # (x), (x+y)

    def test_break_tokens_removed(self):
        hyp = [["a", "_BREAK_", "b"]]
        ref = [["a", "b"]]
        b, c = score_extended(hyp, ref, ["d"], window=2)
        assert b.score == pytest.approx(1.0)
        assert c.score == pytest.approx(1.0)

    def test_geometry_matches_spec_example(self):
        # units A,B,C in one document, window 2 -> scored (A), (A+B), (B+C)
        hyp = [["A"], ["B"], ["C"]]
        b, _ = score_extended(hyp, hyp, ["m"] * 3, window=2)
        assert b.hyp_length == 1 + 2 + 2


class TestPronounCategories:
    def test_polite_imperative(self):
        occ = PronounOccurrence(("Kommen", "Sie", "!"), ("Come", "!"))
        assert categorize_pronoun(occ) == CATEGORY_POLITE_IMPERATIVE

    def test_plural(self):
        occ = PronounOccurrence(("wo", "sind", "sie", "?"), ("where", "are", "they", "?"))
        assert categorize_pronoun(occ) == CATEGORY_PLURAL

    def test_polite_other(self):
        occ = PronounOccurrence(("ich", "sehe", "Sie",), ("I", "see", "you", "."))
        assert categorize_pronoun(occ) == CATEGORY_POLITE_OTHER

    def test_fem_singular(self):
        occ = PronounOccurrence(("sie", "schläft",), ("she", "sleeps", "."))
        assert categorize_pronoun(occ) == CATEGORY_FEM_SINGULAR

    def test_judgment(self):
        assert judge_pronoun(["she", "sleeps"], ["her", "dog"])  # same she/her class
        assert not judge_pronoun(["she", "sleeps"], ["they", "sleep"])
        assert judge_pronoun(["Come", "!"], ["Go", "!"])  # both drop the pronoun


class TestPronounAccuracy:
    def make_occurrences(self, n_correct, n_total, category=CATEGORY_PLURAL):
        occs = []
        for i in range(n_total):
            occ = PronounOccurrence(("sie",), ("they",))
            occ.category = category
            occ.correct = {"baseline": i < n_correct}
            occs.append(occ)
        return occs

    def test_accuracy_computation(self):
        occs = self.make_occurrences(60, 86)
        report = pronoun_accuracy(occs, ["baseline"])
        row = [r for r in report.rows if r.category == CATEGORY_PLURAL][0]
        assert row.occurrences == 86
        assert row.accuracy("baseline") == pytest.approx(60 / 86)
        assert "%.1f" % (100 * row.accuracy("baseline")) == "69.8"

    def test_zero_occurrences_undefined(self):
        report = pronoun_accuracy([], ["sysA"])
        for row in report.rows:
            assert row.accuracy("sysA") is None
        text = format_pronoun_report(report)
        assert "polite_imperative\t0\t" in text

    def test_all_correct(self):
        occs = self.make_occurrences(5, 5)
        report = pronoun_accuracy(occs, ["baseline"])
        assert report.total.accuracy("baseline") == 1.0

    def test_extract_and_judge_pipeline(self):
        src = [["such", "sie", ",", "Max", "."], ["-Ja", "."]]
        ref = [["get", "them", ",", "Max", "."], ["-", "Yes", "."]]
        systems = {
            "base": [["find", "her", ",", "Max", "."], ["-", "Yes", "."]],
            "ctx": [["find", "them", ",", "Max", "."], ["-", "Yes", "."]],
        }
        occs = extract_pronoun_occurrences(src, ref, systems)
        assert len(occs) == 1
        judge_occurrences(occs)
        assert occs[0].correct["base"] is False
        assert occs[0].correct["ctx"] is True
        assert occs[0].category == CATEGORY_PLURAL

    def test_you_outranks_them_in_cascade(self):
        # mixed-pronoun references are judged as their highest-priority class
        src = [["siehst", "du", "sie", "?"]]
        ref = [["do", "you", "see", "them", "?"]]
        systems = {"base": [["do", "you", "see", "her", "?"]]}
        occs = extract_pronoun_occurrences(src, ref, systems)
        judge_occurrences(occs)
        assert occs[0].category == CATEGORY_POLITE_OTHER
        assert occs[0].correct["base"] is True


class TestChiSquare:
    def test_proportional_table(self):
        stat, significant = chi_square_2x2(10, 10, 10, 10)
        assert stat == 0
        assert not significant

    def test_close_counts_not_significant(self):
        stat, significant = chi_square_2x2(60, 26, 68, 18)
        assert stat == pytest.approx(oracle_chi_square(60, 26, 68, 18), abs=1e-9)
        assert not significant

    def test_perfect_association(self):
        stat, significant = chi_square_2x2(50, 0, 0, 50)
        assert stat == pytest.approx(100.0)
        assert significant

    def test_zero_margin(self):
        with pytest.raises(DataError):
            chi_square_2x2(0, 0, 5, 5)

    def test_row_and_column_exchange_invariance(self):
        base, _ = chi_square_2x2(12, 5, 7, 9)
        assert chi_square_2x2(7, 9, 12, 5)[0] == pytest.approx(base)
        assert chi_square_2x2(5, 12, 9, 7)[0] == pytest.approx(base)


def test_score_report_format():
    hyps, refs = committed_pairs()
    text = format_score_report([("baseline", bleu(hyps, refs), chrf(hyps, refs))])
    lines = text.splitlines()
    assert lines[0].startswith("system\tBLEU")
    assert lines[1].split("\t")[0] == "baseline"
    assert len(lines[1].split("\t")) == 5
