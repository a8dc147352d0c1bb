"""BPE learning, application, threshold splitting, and reversion tests."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxnmt.errors import ConfigError, DataError
from ctxnmt.subword import (
    BpeModel,
    apply_bpe,
    apply_bpe_line,
    default_protected,
    learn_bpe,
    load_bpe_model,
    revert_bpe,
    save_bpe_model,
    word_frequencies,
)

from oracles import oracle_apply_bpe, oracle_learn_bpe, oracle_word_frequencies

DATA = Path(__file__).parent / "data"


class TestLearn:
    def test_single_pair(self):
        model = learn_bpe({"aa": 5}, 1)
        assert model.merges == (("a", "a"),)

    def test_zero_merges(self):
        model = learn_bpe({"abc": 2}, 0)
        assert model.merges == ()
        assert apply_bpe(model, "ab") == ["a@@", "b"]

    def test_most_frequent_pair_wins(self):
        model = learn_bpe({"ab": 3, "abc": 2}, 1)
        assert model.merges == (("a", "b"),)

    def test_merges_exhaust(self):
        # "ab" has at most 3 merges: (a,b), (ab,</w>) ... until one symbol remains
        model = learn_bpe({"ab": 1}, 100)
        assert len(model.merges) == 2

    def test_lexicographic_tie_break(self):
        # "ba" and "bc" both give pairs with count 1 after the (b,*) stage;
        # pairs (b,a) and (b,c) tie at 1, (b,a) must win
        model = learn_bpe({"ba": 1, "bc": 1}, 1)
        assert model.merges[0] == ("b", "a")

    def test_subword_vocab_counts(self):
        model = learn_bpe({"ab": 3, "ac": 2}, 0)
        assert model.subword_vocab == {"a@@": 5, "b": 3, "c": 2}

    def test_overlapping_repeats(self):
        model = learn_bpe({"aaaa": 2, "aaa": 1}, 2)
        assert model.merges == (("a", "a"), ("aa", "aa"))
        assert model.subword_vocab == {"aaaa": 2, "aa@@": 1, "a": 1}

    def test_negative_merges_rejected(self):
        with pytest.raises(ConfigError):
            learn_bpe({"ab": 1}, -1)

    @pytest.mark.parametrize("word", ["a b", "a\tb", "ab\n", "a\u2028b"])
    def test_whitespace_in_word_rejected(self, word):
        with pytest.raises(ConfigError):
            learn_bpe({word: 3, "ab": 1}, 5)

    # ("b", "</w>") learned from "ab</w>" would read as an end-of-word merge, and "a@@" as
    # a whole word would share the vocabulary key of a non-final "a"
    @pytest.mark.parametrize("words", [{"ab</w>": 5, "b": 1}, {"a@@": 5, "ab": 2}, {"</w>": 1}, {"@@": 1},
                                       {"x</w>y": 1}, {"a@@b": 1}, {"ok": 2, "@@x": 1}])
    def test_marker_in_word_rejected(self, words):
        with pytest.raises(ConfigError, match="whitespace, </w> or @@"):
            learn_bpe(words, 20)

    def test_split_markers_are_ordinary_text(self):
        model = learn_bpe({"a</": 2, "w>@": 1}, 20)
        assert model.subword_vocab == {"a</": 2, "w>@": 1}


class TestApply:
    def test_learned_merge_applies(self):
        model = learn_bpe({"aa": 5}, 1)
        assert apply_bpe(model, "aa") == ["aa"]

    def test_character_fallback(self):
        model = learn_bpe({"xy": 1}, 0)
        assert apply_bpe(model, "ab") == ["a@@", "b"]

    def test_threshold_dominates(self):
        model = learn_bpe({"abab": 4}, 10)
        out = apply_bpe(model, "abab", vocab_threshold=10 ** 6)
        assert out == ["a@@", "b@@", "a@@", "b"]

    def test_threshold_zero_keeps_merges(self):
        model = learn_bpe({"abab": 4}, 10)
        assert apply_bpe(model, "abab", vocab_threshold=0) == ["abab"]

    def test_threshold_splits_rare(self):
        # "ab" frequent, "abc" rare: with a threshold above 2 the merged
        # "abc" form must fall back to pieces that meet the threshold
        model = learn_bpe({"ab": 50, "abc": 2}, 10)
        out = apply_bpe(model, "abc", vocab_threshold=10)
        for piece in out:
            count = model.subword_vocab.get(piece, 0)
            assert count >= 10 or len(piece.replace("@@", "")) == 1
        assert revert_bpe(out) == ["abc"]

    def test_protected_tokens(self):
        model = learn_bpe({"ab": 2, "abc": 1}, 2)
        for token in ("_BREAK_", "cc_siehst", "cc_ab", "ab@@", "a@@b", "x</w>y"):
            assert apply_bpe(model, token) == [token]
        assert apply_bpe(model, "abc") == ["ab@@", "c"]
        assert apply_bpe(model, "ab~~c") == ["ab@@", "~@@", "~@@", "c"]  # "~~" is ordinary text

    def test_single_char_token(self):
        model = learn_bpe({"a": 1}, 0)
        assert apply_bpe(model, "a") == ["a"]

    def test_negative_threshold_rejected(self):
        model = learn_bpe({"ab": 2}, 1)
        with pytest.raises(ConfigError):
            apply_bpe(model, "ab", vocab_threshold=-1)


class TestRevert:
    def test_join(self):
        assert revert_bpe(["a@@", "b"]) == ["ab"]

    def test_no_markers(self):
        assert revert_bpe(["look", ",", "Bob", "!"]) == ["look", ",", "Bob", "!"]

    def test_dangling_marker(self):
        with pytest.raises(DataError):
            revert_bpe(["a@@"])

    def test_empty(self):
        assert revert_bpe([]) == []


token_st = st.text(alphabet="abcdefgh-.", min_size=1, max_size=8)
corpus_words_st = st.dictionaries(token_st, st.integers(min_value=1, max_value=40), min_size=1, max_size=20)


@settings(max_examples=120, deadline=None)
@given(
    words=corpus_words_st,
    num_merges=st.integers(min_value=0, max_value=40),
    threshold=st.integers(min_value=0, max_value=30),
    tokens=st.lists(token_st, min_size=0, max_size=12),
)
def test_round_trip_property(words, num_merges, threshold, tokens):
    model = learn_bpe(words, num_merges)
    segmented = apply_bpe_line(model, tokens, threshold)
    assert revert_bpe(segmented) == list(tokens)


@settings(max_examples=80, deadline=None)
@given(
    words=corpus_words_st,
    num_merges=st.integers(min_value=0, max_value=30),
    token=token_st,
    t1=st.integers(min_value=0, max_value=20),
    t2=st.integers(min_value=0, max_value=20),
)
def test_threshold_monotonicity(words, num_merges, token, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    model = learn_bpe(words, num_merges)
    assert len(apply_bpe(model, token, hi)) >= len(apply_bpe(model, token, lo))


@settings(max_examples=60, deadline=None)
@given(words=corpus_words_st, num_merges=st.integers(min_value=0, max_value=30))
def test_learn_deterministic(words, num_merges):
    assert learn_bpe(words, num_merges) == learn_bpe(words, num_merges)


small_words_st = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alphabet: st.dictionaries(
        st.text(alphabet=alphabet, min_size=0, max_size=9), st.integers(min_value=1, max_value=6),
        min_size=1, max_size=12,
    )
)


@settings(max_examples=200, deadline=None)
@given(words=small_words_st, num_merges=st.integers(min_value=0, max_value=30))
@example(words={"aaaa": 3, "abab": 2, "aaa": 1, "ba": 2}, num_merges=10)
# every frequency is 1, and each of the 22 picks (at counts 4, 3, 2, 1) breaks a tie
@example(words=dict.fromkeys(["aacab", "cccba", "cacc", "cbcb", "bab", "caaaa", "cabac"], 1), num_merges=22)
# merging (c, a) re-files the stale (b, c) entry at 5 and pushes (ca, b) fresh at 5, the new maximum
@example(words={"aca": 3, "bcabc": 1, "cabcb": 4}, num_merges=10)
# overlapping repeats: (a, a) merges twice in "aaaa" and leaves one "a" in "aaaaa"
@example(words={"aaaa": 3, "aaaaa": 2}, num_merges=10)
@example(words={"abab": 4, "ab": 1}, num_merges=10)
# the first merge, (a, b), is at the start of both words, so no pair lies to its left
@example(words={"abc": 5, "ab": 3}, num_merges=10)
# the first merge, (b, </w>), is at the end of both words, so no pair lies to its right
@example(words={"ab": 3, "b": 2}, num_merges=10)
# adjacent merges: the second (a, b) in "ababab" starts where the first ends
@example(words={"ababab": 2, "ab": 1}, num_merges=10)
# left == right runs of odd and even length: "aaaaaaa" keeps one "a" after three (a, a) merges
@example(words={"aaaaaaa": 2}, num_merges=10)
@example(words={"aaaaaa": 2}, num_merges=10)
# both neighbours of the first merge, (a, b) in "cabc", are "c"
@example(words={"cabc": 3, "ab": 2}, num_merges=10)
def test_learn_matches_recount_oracle(words, num_merges):
    # small alphabets and counts make ties and overlapping repeats common
    model = learn_bpe(words, num_merges)
    oracle = oracle_learn_bpe(words, num_merges)
    assert model.merges == oracle.merges
    assert model.subword_vocab == oracle.subword_vocab


def test_learn_matches_recount_oracle_zipfian():
    rng = random.Random(5)
    types = set()
    while len(types) < 300:
        types.add("".join(rng.choice("abcdefg") for _ in range(rng.randint(1, 9))))
    words = {word: 1 + 600 // rank for rank, word in enumerate(sorted(types), start=1)}
    model = learn_bpe(words, 150)
    oracle = oracle_learn_bpe(words, 150)
    assert len(model.merges) == 150
    assert model.merges == oracle.merges
    assert model.subword_vocab == oracle.subword_vocab


def test_learn_matches_recount_oracle_tie_heavy_zipfian():
    # 276 of the 300 types occur once, so 173 of the 200 picks break a tie,
    # 38 of them between a content pair and a pair with the end-of-word marker
    rng = random.Random(11)
    types = set()
    while len(types) < 300:
        types.add("".join(rng.choice("abcd") for _ in range(rng.randint(1, 5))))
    types = sorted(types)
    rng.shuffle(types)
    words = {word: 1 + 24 // rank for rank, word in enumerate(types, start=1)}
    model = learn_bpe(words, 200)
    oracle = oracle_learn_bpe(words, 200)
    assert len(model.merges) == 200
    assert model.merges == oracle.merges
    assert model.subword_vocab == oracle.subword_vocab


def test_learn_on_a_zipfian_workload_is_pinned(tmp_path):
    # 3,000 types of 3-12 letters with skewed letter frequencies and Zipfian counts, like the
    # prep-analyze benchmark's learning corpus; the digest of the model file pins every merge,
    # its order and every vocabulary count at a scale the oracle is too slow for
    rng = random.Random(26)
    letters = "etaoinshrdlcumwfgypbvkjxqz"
    weights = [1.0 / rank ** 0.8 for rank in range(1, len(letters) + 1)]
    types = {}
    while len(types) < 3000:
        types["".join(rng.choices(letters, weights, k=rng.randint(3, 12)))] = None
    words = {word: 1 + int(40000 * rank ** -1.1) for rank, word in enumerate(types, start=1)}
    model = learn_bpe(words, 500)
    assert len(model.merges) == 500
    save_bpe_model(model, tmp_path / "codes.bpe")
    digest = hashlib.sha256((tmp_path / "codes.bpe").read_bytes()).hexdigest()
    assert digest == "3f05b568256dfcb70f74c2419fd75d36c9b35522c5ff4ae602b46a0a54151277"


symbol_st = st.text(alphabet="abc", min_size=1, max_size=3)


@st.composite
def handmade_models(draw):
    """Merge lists that need not come from learning: a pair may repeat, and
    two merges may spell one string."""
    rights = st.one_of(symbol_st, symbol_st.map(lambda s: s + "</w>"), st.just("</w>"))
    merges = draw(st.lists(st.tuples(symbol_st, rights), max_size=12))
    forms = set()
    for left, right in merges:
        spelled = left + right
        forms.update([spelled[:-4]] if spelled.endswith("</w>") else [spelled, spelled + "@@"])
    vocab = draw(st.fixed_dictionaries({form: st.integers(min_value=0, max_value=6) for form in sorted(forms)}))
    return BpeModel(merges=tuple(merges), subword_vocab=vocab)


@settings(max_examples=300, deadline=None)
@given(
    model=st.one_of(st.builds(learn_bpe, small_words_st, st.integers(min_value=0, max_value=30)), handmade_models()),
    tokens=st.lists(st.text(alphabet="abc", min_size=1, max_size=9), min_size=1, max_size=8),
    threshold=st.sampled_from([0, 1, 3, 6]),
)
@example(
    model=BpeModel(merges=(("a", "b"), ("b", "c"), ("a", "b"), ("a", "bc"), ("ab", "c"), ("abc", "</w>")),
                   subword_vocab={"ab@@": 1, "bc@@": 5, "abc": 2, "abc@@": 4}),
    tokens=["abc", "abcabc", "ababc", "bcabc"], threshold=3,
)
# after (b, c) merges, the old ranks of (a, b) and (c, d) no longer apply: "a@@ bc", "bc@@ d"
@example(model=BpeModel(merges=(("b", "c"), ("c", "d"), ("a", "b")), subword_vocab={}), tokens=["abc", "bcd"],
         threshold=0)
def test_apply_matches_pair_set_oracle(model, tokens, threshold):
    for token in tokens:
        assert apply_bpe(model, token, threshold) == oracle_apply_bpe(model, token, threshold)


line_tokens_st = st.one_of(
    st.sampled_from(["_BREAK_", "cc_a", "cc_", "a@@", "@@b", "a</w>", "</w>"]),
    st.text(alphabet="ab_c", min_size=1, max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.lists(line_tokens_st, max_size=8), max_size=6))
def test_word_frequencies_match_per_token_oracle(lines):
    freqs = word_frequencies(lines)
    assert list(freqs.items()) == list(oracle_word_frequencies(lines, default_protected).items())


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = learn_bpe({"look": 5, "looked": 3, "book": 4}, 12)
        path = tmp_path / "codes.bpe"
        save_bpe_model(model, path)
        again = load_bpe_model(path)
        assert again.merges == model.merges
        assert again.subword_vocab == model.subword_vocab

    def test_golden_merges(self, tmp_path):
        # frozen merge list: regression against the committed learning corpus
        lines = [l.split() for l in (DATA / "bpe_corpus.txt").read_text().splitlines()]
        model = learn_bpe(word_frequencies(lines), 40)
        golden = load_bpe_model(DATA / "golden_bpe.model")
        assert model.merges == golden.merges
        assert model.subword_vocab == golden.subword_vocab
        save_bpe_model(model, tmp_path / "codes.bpe")
        assert (tmp_path / "codes.bpe").read_bytes() == (DATA / "golden_bpe.model").read_bytes()


def test_word_frequencies_skips_protected():
    freqs = word_frequencies([["a", "_BREAK_", "cc_x", "a"]])
    assert freqs == {"a": 2}
