"""Attention partitioning and statistics tests, with brute-force oracle
equivalence on random records."""

import numpy as np
import pytest

from ctxnmt.attnstats import (
    MODEL_ONE_SIDED,
    MODEL_TWO_SIDED,
    corpus_external_proportion,
    format_majority_table,
    format_stats_table,
    heatmap_pgm,
    heatmap_tsv,
    majority_peak_stats,
    partition,
    word_mass_stats,
    word_peak_stats,
)
from ctxnmt.decode import AttentionExport
from ctxnmt.errors import ConfigError, DataError

from oracles import (
    oracle_corpus_external_proportion,
    oracle_majority_peak_stats,
    oracle_partition,
    oracle_word_mass_stats,
    oracle_word_peak_stats,
)


def export_one_sided(weights, focus_start, source=None, target=None):
    weights = np.asarray(weights, dtype=np.float64)
    t, s = weights.shape
    return AttentionExport(
        index=0,
        doc_id="d",
        index_in_doc=0,
        source_tokens=source or ["s%d" % i for i in range(s)],
        target_tokens=target or ["w%d" % i for i in range(t)],
        weights=weights,
        source_focus_start=focus_start,
    )


class TestPartitionOneSided:
    def test_context_vs_focus_masses(self):
        export = export_one_sided([[0.7, 0.3]], focus_start=1)
        parts = partition(export, MODEL_ONE_SIDED)
        assert len(parts) == 1
        assert parts[0].external_mass == pytest.approx(0.7)
        assert parts[0].internal_mass == pytest.approx(0.3)
        assert parts[0].break_mass == 0.0

    def test_no_context(self):
        export = export_one_sided([[0.5, 0.5]], focus_start=0)
        parts = partition(export, MODEL_ONE_SIDED)
        assert parts[0].external_mass == 0.0
        assert parts[0].internal_mass == pytest.approx(1.0)

    def test_positions_one_based(self):
        export = export_one_sided([[1.0], [1.0]], focus_start=0)
        parts = partition(export, MODEL_ONE_SIDED)
        assert [p.position for p in parts] == [1, 2]

    def test_break_column_counts_in_neither_side(self):
        export = export_one_sided([[0.2, 0.5, 0.3]], focus_start=2, source=["a", "_BREAK_", "b"])
        (part,) = partition(export, MODEL_ONE_SIDED)
        assert part.external_mass == pytest.approx(0.2)
        assert part.internal_mass == pytest.approx(0.3)
        assert part.break_mass == pytest.approx(0.5)
        assert (part.external_peak, part.internal_peak) == (pytest.approx(0.2), pytest.approx(0.3))

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError):
            partition(export_one_sided([[1.0]], focus_start=0), "3+3")

    def test_bad_geometry(self):
        export = export_one_sided([[1.0]], focus_start=5)
        with pytest.raises(DataError):
            partition(export, MODEL_ONE_SIDED)


class TestPartitionTwoSided:
    def test_break_mass_excluded(self):
        # source: seg0 = [a], break, seg1 = [b]; target token in segment 1
        export = AttentionExport(
            index=0,
            doc_id="d",
            index_in_doc=0,
            source_tokens=["a", "_BREAK_", "b"],
            target_tokens=["x", "_BREAK_", "y"],
            weights=np.array(
                [[0.6, 0.1, 0.3], [0.2, 0.6, 0.2], [0.3, 0.2, 0.5]]
            ),
            source_focus_start=2,
        )
        parts = partition(export, MODEL_TWO_SIDED)
        assert len(parts) == 2  # the output break token is skipped
        first, second = parts
        assert first.word == "x"
        assert first.internal_mass == pytest.approx(0.6)  # own segment: position 0
        assert first.external_mass == pytest.approx(0.3)
        assert first.break_mass == pytest.approx(0.1)
        assert second.word == "y"
        assert second.position == 1  # position resets after the break
        assert second.internal_mass == pytest.approx(0.5)
        assert second.external_mass == pytest.approx(0.3)
        assert second.break_mass == pytest.approx(0.2)

    def test_mass_partition_sums_to_one(self):
        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.ones(5), size=4)
        export = AttentionExport(
            index=0,
            doc_id="d",
            index_in_doc=0,
            source_tokens=["a", "b", "_BREAK_", "c", "d"],
            target_tokens=["w", "x", "_BREAK_", "y"],
            weights=weights,
            source_focus_start=3,
        )
        for kind in (MODEL_ONE_SIDED, MODEL_TWO_SIDED):
            for p in partition(export, kind):
                assert p.external_mass + p.internal_mass + p.break_mass == pytest.approx(1.0, abs=1e-6)


def mk_part(word, ext, internal):
    """One occurrence of `word`: a one-token one-sided record whose context
    positions carry `ext` and whose focus positions carry `internal`."""
    export = export_one_sided([list(ext) + list(internal)], focus_start=len(ext), target=[word])
    (part,) = partition(export, MODEL_ONE_SIDED)
    return part


class TestMassStats:
    def test_hand_arithmetic(self):
        parts = [
            mk_part("well", [0.2], [0.8]),
            mk_part("well", [0.4], [0.6]),
        ]
        stats = word_mass_stats(parts, min_freq=2)
        row = stats.rows[0]
        assert row.external == pytest.approx(0.3)
        assert row.internal == pytest.approx(0.7)
        assert row.proportion == pytest.approx(30.0)

    def test_frequency_filter(self):
        parts = [mk_part("rare", [0.5], [0.5]) for _ in range(4)]
        stats = word_mass_stats(parts, min_freq=5)
        assert stats.rows == []
        assert stats.average.freq == 4  # average row is unfiltered

    def test_no_context_all_zero(self):
        parts = [mk_part("w", [], [1.0]) for _ in range(6)]
        stats = word_mass_stats(parts, min_freq=5)
        assert stats.rows[0].proportion == 0.0


class TestPeakStats:
    def test_hand_arithmetic(self):
        parts = [mk_part("w", [0.05, 0.10], [0.3, 0.2]) for _ in range(5)]
        stats = word_peak_stats(parts, min_freq=5)
        row = stats.rows[0]
        assert row.external == pytest.approx(0.10)
        assert row.internal == pytest.approx(0.3)
        assert row.proportion == pytest.approx(25.0)

    def test_single_position_peak_equals_mass(self):
        p = mk_part("w", [0.4], [0.6])
        assert p.external_peak == p.external_mass

    def test_empty_external_peak_zero(self):
        p = mk_part("w", [], [1.0])
        assert p.external_peak == 0.0

    def test_peak_never_exceeds_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ext = list(rng.dirichlet(np.ones(4)) * 0.5)
            internal = list(rng.dirichlet(np.ones(3)) * 0.5)
            p = mk_part("w", ext, internal)
            assert p.external_peak <= p.external_mass + 1e-12
            assert p.internal_peak <= p.internal_mass + 1e-12


class TestMajorityStats:
    def test_known_proportion(self):
        parts = [mk_part("yeah", [0.6], [0.4]) for _ in range(7)]
        parts += [mk_part("yeah", [0.1], [0.9]) for _ in range(84)]
        rows = majority_peak_stats(parts, min_cases=5)
        assert rows[0].freq_ext_peak == 7
        assert rows[0].freq == 91
        assert rows[0].proportion == pytest.approx(7 / 91)
        assert "%.3f" % rows[0].proportion == "0.077"

    def test_discard_rule(self):
        parts = [mk_part("w", [0.9], [0.1]) for _ in range(4)]
        parts += [mk_part("w", [0.1], [0.9]) for _ in range(50)]
        assert majority_peak_stats(parts, min_cases=5) == []

    def test_no_context_empty(self):
        parts = [mk_part("w", [], [1.0]) for _ in range(10)]
        assert majority_peak_stats(parts, min_cases=5) == []

    def test_mass_variant_flag(self):
        # external peak loses but external mass wins
        parts = [mk_part("w", [0.3, 0.3], [0.4]) for _ in range(6)]
        assert majority_peak_stats(parts, min_cases=5) == []
        rows = majority_peak_stats(parts, min_cases=5, use_mass=True)
        assert rows[0].freq_ext_peak == 6


class TestCorpusProportion:
    def test_single_token(self):
        assert corpus_external_proportion([mk_part("w", [0.7], [0.3])]) == pytest.approx(0.7)

    def test_two_tokens(self):
        parts = [mk_part("a", [0.7], [0.3]), mk_part("b", [0.1], [0.9])]
        assert corpus_external_proportion(parts) == pytest.approx(0.4)

    def test_no_context(self):
        assert corpus_external_proportion([mk_part("w", [], [1.0])]) == 0.0


def random_exports(n_records, seed, kind=MODEL_TWO_SIDED):
    """Random records with break tokens on both sides; one-sided records
    also get a random focus, so breaks fall into the context too."""
    rng = np.random.default_rng(seed)
    words = ["yeah", "oh", "yes", ".", "?", "no", "what", "-"]
    exports = []
    for idx in range(n_records):
        n_src = rng.integers(2, 8)
        n_trg = rng.integers(1, 7)
        src = ["_BREAK_" if rng.random() < 0.2 else "s%d" % rng.integers(4) for _ in range(n_src)]
        trg = ["_BREAK_" if rng.random() < 0.15 else words[rng.integers(len(words))] for _ in range(n_trg)]
        weights = rng.dirichlet(np.ones(n_src), size=n_trg)
        focus = int(rng.integers(0, n_src + 1)) if kind == MODEL_ONE_SIDED else 0
        exports.append(
            AttentionExport(
                index=idx,
                doc_id="d",
                index_in_doc=idx,
                source_tokens=src,
                target_tokens=trg,
                weights=weights,
                source_focus_start=focus,
            )
        )
    return exports


def random_partitions(n_records=80, seed=0):
    """Random two-sided records partitioned into occurrences."""
    return [p for e in random_exports(n_records, seed) for p in partition(e, MODEL_TWO_SIDED)]


class TestOracleEquivalence:
    def test_all_aggregations_match_bruteforce(self):
        self.check_against_oracle(MODEL_TWO_SIDED)

    def test_one_sided_with_context_breaks_matches_bruteforce(self):
        self.check_against_oracle(MODEL_ONE_SIDED)

    def check_against_oracle(self, kind):
        exports = random_exports(n_records=120, seed=7, kind=kind)
        parts = [p for e in exports for p in partition(e, kind)]
        oracle_parts = [p for e in exports for p in oracle_partition(e, kind)]
        assert len(parts) == len(oracle_parts)

        mass = word_mass_stats(parts, min_freq=5)
        expected = oracle_word_mass_stats(oracle_parts, min_freq=5)
        assert {r.word for r in mass.rows} == set(expected)
        for row in mass.rows:
            freq, ext, internal, prop, pos = expected[row.word]
            assert row.freq == freq
            assert row.external == pytest.approx(ext, abs=1e-12)
            assert row.internal == pytest.approx(internal, abs=1e-12)
            assert row.proportion == pytest.approx(prop, abs=1e-12)
            assert row.mean_position == pytest.approx(pos, abs=1e-12)

        peak = word_peak_stats(parts, min_freq=5)
        expected = oracle_word_peak_stats(oracle_parts, min_freq=5)
        assert {r.word for r in peak.rows} == set(expected)
        for row in peak.rows:
            freq, ext, internal, prop, pos = expected[row.word]
            assert row.freq == freq
            assert row.external == pytest.approx(ext, abs=1e-12)
            assert row.proportion == pytest.approx(prop, abs=1e-12)

        majority = majority_peak_stats(parts, min_cases=5)
        expected = oracle_majority_peak_stats(oracle_parts, min_cases=5)
        assert {r.word for r in majority} == set(expected)
        for row in majority:
            wins, freq, prop = expected[row.word]
            assert (row.freq_ext_peak, row.freq) == (wins, freq)
            assert row.proportion == pytest.approx(prop, abs=1e-12)

        assert corpus_external_proportion(parts) == pytest.approx(
            oracle_corpus_external_proportion(oracle_parts), abs=1e-12
        )

    def test_filters_enforced(self):
        parts = random_partitions(n_records=60, seed=9)
        for row in word_mass_stats(parts, min_freq=5).rows:
            assert row.freq >= 5
        for row in majority_peak_stats(parts, min_cases=5):
            assert row.freq_ext_peak >= 5


class TestHeatmaps:
    def export(self):
        return AttentionExport(
            index=0,
            doc_id="d",
            index_in_doc=0,
            source_tokens=["a", "_BREAK_"],
            target_tokens=["x", "y"],
            weights=np.array([[1.0, 0.0], [0.25, 0.75]]),
            source_focus_start=0,
        )

    def test_tsv_grid_shape(self):
        lines = heatmap_tsv(self.export()).splitlines()
        assert len(lines) == 3  # label row + 2 token rows
        assert all(len(l.split("\t")) == 3 for l in lines)

    def test_break_column_flagged(self):
        header = heatmap_tsv(self.export()).splitlines()[0]
        assert header.split("\t")[2] == "||"

    def test_pgm_weight_one_darkest(self):
        pgm = heatmap_pgm(self.export()).splitlines()
        assert pgm[0] == "P2"
        assert pgm[1] == "2 2"
        first_row = pgm[3].split()
        assert first_row[0] == "0"  # weight 1.0 -> black
        assert first_row[1] == "255"  # weight 0.0 -> white

    def test_table_formatting(self):
        parts = random_partitions(40, seed=3)
        text = format_stats_table(word_mass_stats(parts, min_freq=2))
        assert text.startswith("word\tfreq\texternal")
        assert text.rstrip().splitlines()[-1].startswith("average\t")
        text = format_majority_table(majority_peak_stats(parts, min_cases=1))
        assert text.startswith("word\tproportion")
