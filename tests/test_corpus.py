"""Context extension and synthetic corpus tests."""

import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxnmt.corpus import (
    DEFAULT_LEXICON,
    DEFAULT_PRONOUN_MAP,
    ContextConfig,
    Marking,
    SynthSpec,
    TranslationUnit,
    extend_corpus,
    extract_focus,
    generate_synthetic_corpus,
    make_unit,
    mark_context,
    read_parallel_corpus,
    write_lines,
    write_parallel_corpus,
)
from ctxnmt.errors import ConfigError, MalformedCorpusError

DATA = Path(__file__).parent / "data"


def mini_units():
    return read_parallel_corpus(DATA / "mini.src", DATA / "mini.trg", DATA / "mini.docs")


PREFIX_21 = ContextConfig(source_window=1, target_window=0, marking=Marking.PREFIX)
BREAK_21 = ContextConfig(source_window=1, target_window=0, marking=Marking.BREAK)
BREAK_22 = ContextConfig(source_window=1, target_window=1, marking=Marking.BREAK)


class TestMarkContext:
    def test_prefix(self):
        assert mark_context(["siehst", "du", "sie", "?"], Marking.PREFIX) == [
            "cc_siehst",
            "cc_du",
            "cc_sie",
            "cc_?",
        ]

    def test_empty(self):
        assert mark_context([], Marking.PREFIX) == []

    def test_break_identity(self):
        assert mark_context(["ja", "."], Marking.BREAK) == ["ja", "."]


class TestExtendCorpus:
    def test_prefix_second_example(self):
        units = [
            make_unit("sieh , Bob !", "look , Bob !", "m", 0),
            make_unit("-Wo sind sie ?", "- Where are they ?", "m", 1),
        ]
        ext = extend_corpus(units, PREFIX_21)
        assert " ".join(ext[1].source_tokens) == "cc_sieh cc_, cc_Bob cc_! -Wo sind sie ?"
        assert " ".join(ext[1].target_tokens) == "- Where are they ?"
        assert ext[1].source_focus_start == 4
        assert ext[1].target_focus_start == 0

    def test_break_two_sided_second_example(self):
        units = [
            make_unit("sieh , Bob !", "look , Bob !", "m", 0),
            make_unit("-Wo sind sie ?", "- Where are they ?", "m", 1),
        ]
        ext = extend_corpus(units, BREAK_22)
        assert " ".join(ext[1].source_tokens) == "sieh , Bob ! _BREAK_ -Wo sind sie ?"
        assert " ".join(ext[1].target_tokens) == "look , Bob ! _BREAK_ - Where are they ?"
        assert ext[1].source_focus_start == 5
        assert ext[1].target_focus_start == 5

    def test_first_unit_unchanged(self):
        units = mini_units()
        for config in (PREFIX_21, BREAK_21, BREAK_22):
            first = extend_corpus(units, config)[0]
            assert first.source_tokens == units[0].source_tokens
            assert first.target_tokens == units[0].target_tokens
            assert first.source_focus_start == 0
            assert first.target_focus_start == 0

    def test_full_mini_corpus_rows(self):
        units = mini_units()
        prefix_rows = [" ".join(e.source_tokens) for e in extend_corpus(units, PREFIX_21)]
        assert prefix_rows[1:] == [
            "cc_sieh cc_, cc_Bob cc_! -Wo sind sie ?",
            "cc_-Wo cc_sind cc_sie cc_? siehst du sie ?",
            "cc_siehst cc_du cc_sie cc_? -Ja .",
        ]
        ext22 = extend_corpus(units, BREAK_22)
        assert [" ".join(e.source_tokens) for e in ext22][1:] == [
            "sieh , Bob ! _BREAK_ -Wo sind sie ?",
            "-Wo sind sie ? _BREAK_ siehst du sie ?",
            "siehst du sie ? _BREAK_ -Ja .",
        ]
        assert [" ".join(e.target_tokens) for e in ext22][1:] == [
            "look , Bob ! _BREAK_ - Where are they ?",
            "- Where are they ? _BREAK_ do you see them ?",
            "do you see them ? _BREAK_ - Yes .",
        ]

    def test_document_reset(self):
        units = [
            make_unit("a b", "A B", "d1", 0),
            make_unit("c d", "C D", "d1", 1),
            make_unit("e f", "E F", "d2", 0),
        ]
        ext = extend_corpus(units, BREAK_22)
        assert ext[2].source_tokens == ("e", "f")
        assert ext[2].source_focus_start == 0

    def test_window_two_oldest_first(self):
        units = [make_unit(s, s.upper(), "d", i) for i, s in enumerate(["a", "b", "c"])]
        config = ContextConfig(source_window=2, target_window=0, marking=Marking.BREAK)
        ext = extend_corpus(units, config)
        assert " ".join(ext[2].source_tokens) == "a _BREAK_ b _BREAK_ c"
        assert ext[2].source_focus_start == 4

    def test_non_consecutive_index_rejected(self):
        units = [
            TranslationUnit(("a",), ("A",), "d", 0),
            TranslationUnit(("b",), ("B",), "d", 2),
        ]
        with pytest.raises(MalformedCorpusError):
            extend_corpus(units, BREAK_21)

    def test_non_contiguous_document_rejected(self):
        units = [
            TranslationUnit(("a",), ("A",), "d1", 0),
            TranslationUnit(("b",), ("B",), "d2", 0),
            TranslationUnit(("c",), ("C",), "d1", 0),
        ]
        with pytest.raises(MalformedCorpusError):
            extend_corpus(units, BREAK_21)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from("ab\u00e9 \t\n\x1c\x85\xa0\u1680\u2028\u3000\u200b"), max_size=3),
                    max_size=4),
           st.lists(st.text(st.sampled_from("xy\u2029\x0b"), max_size=2), max_size=3))
    def test_token_check_matches_per_character_rule(self, source, target):
        bad = [tok for tok in source + target if not tok or any(c.isspace() for c in tok)]
        if not bad:
            TranslationUnit(tuple(source), tuple(target), "d", 0)
            return
        with pytest.raises(MalformedCorpusError) as err:
            TranslationUnit(tuple(source), tuple(target), "d", 0)
        assert repr(bad[0]) in str(err.value)

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            ContextConfig(source_window=1, target_window=1, marking=Marking.PREFIX)
        with pytest.raises(ConfigError):
            ContextConfig(source_window=-1)


class TestExtractFocus:
    def test_prefix_focus(self):
        units = mini_units()
        ext = extend_corpus(units, PREFIX_21)
        assert extract_focus(ext[2], "source") == ["siehst", "du", "sie", "?"]

    def test_break_target_focus(self):
        units = mini_units()
        ext = extend_corpus(units, BREAK_22)
        assert extract_focus(ext[1], "target") == ["-", "Where", "are", "they", "?"]

    def test_no_context_identity(self):
        ex = extend_corpus([make_unit("x y z", "X Y Z")], BREAK_22)[0]
        assert extract_focus(ex, "source") == ["x", "y", "z"]
        assert extract_focus(ex, "target") == ["X", "Y", "Z"]


# --- property tests over random corpora -----------------------------------

token_st = st.text(alphabet="abcdefg.!?", min_size=1, max_size=5)
unit_tokens_st = st.lists(token_st, min_size=1, max_size=6)


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(min_value=1, max_value=4))
    units = []
    for d in range(n_docs):
        for i in range(draw(st.integers(min_value=1, max_value=5))):
            units.append(
                TranslationUnit(
                    tuple(draw(unit_tokens_st)),
                    tuple(draw(unit_tokens_st)),
                    "doc%d" % d,
                    i,
                )
            )
    return units


config_st = st.one_of(
    st.builds(
        ContextConfig,
        source_window=st.integers(min_value=0, max_value=3),
        target_window=st.just(0),
        marking=st.just(Marking.PREFIX),
    ),
    st.builds(
        ContextConfig,
        source_window=st.integers(min_value=0, max_value=3),
        target_window=st.integers(min_value=0, max_value=3),
        marking=st.just(Marking.BREAK),
    ),
)


@settings(max_examples=150)
@given(units=corpora(), config=config_st)
def test_focus_round_trip_and_counts(units, config):
    ext = extend_corpus(units, config)
    assert len(ext) == len(units)
    for unit, example in zip(units, ext):
        assert example.origin == (unit.doc_id, unit.index_in_doc)
        assert tuple(extract_focus(example, "source")) == unit.source_tokens
        assert tuple(extract_focus(example, "target")) == unit.target_tokens
        if config.marking is Marking.BREAK:
            n_breaks = sum(1 for t in example.source_tokens if t == config.break_token)
            assert n_breaks == min(config.source_window, unit.index_in_doc)
        if unit.index_in_doc == 0:
            assert example.source_tokens == unit.source_tokens
            assert example.target_tokens == unit.target_tokens


@settings(max_examples=50)
@given(units=corpora())
def test_corpus_file_round_trip(units, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    write_parallel_corpus(units, tmp / "c.src", tmp / "c.trg", tmp / "c.docs")
    again = read_parallel_corpus(tmp / "c.src", tmp / "c.trg", tmp / "c.docs")
    assert again == list(units)


@pytest.mark.parametrize("error, raised", [(OSError(28, "No space left on device"), ConfigError),
                                           (KeyboardInterrupt(), KeyboardInterrupt)], ids=["error", "interrupt"])
def test_a_write_that_stops_halfway_keeps_the_old_file(tmp_path, error, raised):
    path = tmp_path / "c.src"
    write_lines(path, ["old"])

    def lines():
        yield "new"
        raise error

    with pytest.raises(raised):
        write_lines(path, lines())
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["c.src"]  # no c.src.tmp


def test_an_unwritable_output_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot write %s" % (tmp_path / "missing" / "c.src")):
        write_lines(tmp_path / "missing" / "c.src", ["a"])


class TestSynthetic:
    def test_deterministic(self):
        spec = SynthSpec(num_docs=5, units_per_doc=6, rng_seed=7)
        assert generate_synthetic_corpus(spec) == generate_synthetic_corpus(spec)

    def test_empty(self):
        assert generate_synthetic_corpus(SynthSpec(num_docs=0)) == []

    def test_pronoun_follows_antecedent(self):
        spec = SynthSpec(num_docs=20, units_per_doc=6, rng_seed=3)
        units = generate_synthetic_corpus(spec)
        classes = dict(DEFAULT_LEXICON)
        for prev, unit in zip(units, units[1:]):
            if unit.index_in_doc % 2 == 1:
                assert "sie" in unit.source_tokens
                noun = prev.source_tokens[1]
                expected = DEFAULT_PRONOUN_MAP[classes[noun]]
                assert expected in unit.target_tokens
                # pronoun-unit source must not leak the class
                assert unit.source_tokens[0] == "dann"

    def test_class_distribution_roughly_uniform(self):
        spec = SynthSpec(num_docs=400, units_per_doc=2, rng_seed=11)
        units = generate_synthetic_corpus(spec)
        classes = dict(DEFAULT_LEXICON)
        counts = {}
        for u in units:
            if u.index_in_doc % 2 == 0:
                cls = classes[u.source_tokens[1]]
                counts[cls] = counts.get(cls, 0) + 1
        assert set(counts) == {"fem", "masc", "neut", "plural"}
        for c in counts.values():
            assert 0.15 <= c / 400 <= 0.35
