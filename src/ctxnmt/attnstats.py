"""Cross-sentential attention statistics.

For every output token, the attention distribution over source positions is
partitioned into external mass (context history, or other segments in the
two-sided model), internal mass (the token's own segment), and break-symbol
mass (excluded from both).  Aggregations per lowercased target word type
mirror the usual report layouts: mean masses, mean attention peaks, and the
proportion of occurrences whose external attention beats the internal one.

Averages in the mass/peak tables are micro-averaged over all token
occurrences, not over word types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decode import AttentionExport
from .errors import MalformedRecordError

MODEL_ONE_SIDED = "2+1"  # external = context positions before the focus
MODEL_TWO_SIDED = "2+2"  # external = source positions of other segments


@dataclass
class PartitionedAttention:
    """Attention masses and peaks of one output token by position class."""

    word: str
    position: int  # 1-based position within its output segment
    external_mass: float
    internal_mass: float
    break_mass: float
    external_peak: float  # 0.0 when the class has no source position
    internal_peak: float


def partition(export: AttentionExport, model_kind: str) -> list[PartitionedAttention]:
    """Split every output token's attention row into external/internal/break.

    One-sided models: internal = positions from the source focus on.
    Two-sided models: segments are delimited by break tokens on both sides
    and aligned by index; output break tokens themselves are skipped.
    Source break columns count in neither class, for both kinds.
    """
    export.validate()
    weights = export.weights
    src_break = np.array([tok == export.break_token for tok in export.source_tokens], dtype=bool)
    trg_break = np.array([tok == export.break_token for tok in export.target_tokens], dtype=bool)
    trg_segment = np.cumsum(trg_break) - trg_break  # a target break closes its segment
    if model_kind == MODEL_ONE_SIDED:
        internal = (np.arange(len(src_break)) >= export.source_focus_start)[None, :]
        skipped = np.zeros_like(trg_break)
    elif model_kind == MODEL_TWO_SIDED:
        internal = trg_segment[:, None] == np.cumsum(src_break)[None, :]
        skipped = trg_break
    else:
        raise MalformedRecordError("unknown model kind %r" % model_kind)
    internal = internal & ~src_break
    external = ~internal & ~src_break

    position = np.arange(len(trg_break)) + 1 - np.searchsorted(trg_segment, trg_segment)
    ext_mass, ext_peak = _masked_rows(weights, external)
    int_mass, int_peak = _masked_rows(weights, internal)
    break_mass = np.where(src_break, weights, 0.0).sum(axis=1)
    columns = (position, ext_mass, int_mass, break_mass, ext_peak, int_peak)
    rows = zip(export.target_tokens, skipped.tolist(), *(c.tolist() for c in columns))
    return [PartitionedAttention(token.lower(), *values) for token, skip, *values in rows if not skip]


def _masked_rows(weights: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and row maxima over the masked cells; the maximum of a row
    without masked cells is 0.0."""
    total = np.where(mask, weights, 0.0).sum(axis=1)
    peak = np.where(mask, weights, -np.inf).max(axis=1, initial=-np.inf)
    return total, np.where(mask.any(axis=1), peak, 0.0)


@dataclass
class WordTypeStats:
    word: str
    freq: int
    external: float
    internal: float
    proportion: float  # 100 * external / (external + internal)
    mean_position: float | None


@dataclass
class MajorityPeakStats:
    word: str
    freq_ext_peak: int
    freq: int
    proportion: float


@dataclass
class RankedStats:
    rows: list[WordTypeStats]
    average: WordTypeStats


def _proportion(external: float, internal: float) -> float:
    total = external + internal
    return 100.0 * external / total if total > 0 else 0.0


def _by_word(partitions: Sequence[PartitionedAttention]) -> dict[str, list[PartitionedAttention]]:
    by_word: dict[str, list[PartitionedAttention]] = {}
    for p in partitions:
        by_word.setdefault(p.word, []).append(p)
    return by_word


def _aggregate(partitions, min_freq, ext_of, int_of) -> RankedStats:
    rows = []
    for word, occs in _by_word(partitions).items():
        if len(occs) < min_freq:
            continue
        ext = float(np.mean([ext_of(o) for o in occs]))
        internal = float(np.mean([int_of(o) for o in occs]))
        rows.append(
            WordTypeStats(
                word=word,
                freq=len(occs),
                external=ext,
                internal=internal,
                proportion=_proportion(ext, internal),
                mean_position=float(np.mean([o.position for o in occs])),
            )
        )
    rows.sort(key=lambda r: (-r.proportion, r.word))

    if partitions:
        avg_ext = float(np.mean([ext_of(p) for p in partitions]))
        avg_int = float(np.mean([int_of(p) for p in partitions]))
    else:
        avg_ext = avg_int = 0.0
    average = WordTypeStats(
        word="average",
        freq=len(list(partitions)),
        external=avg_ext,
        internal=avg_int,
        proportion=_proportion(avg_ext, avg_int),
        mean_position=None,
    )
    return RankedStats(rows=rows, average=average)


def word_mass_stats(partitions: Sequence[PartitionedAttention], min_freq: int = 5) -> RankedStats:
    """Mean external/internal attention mass per word type (frequency filter
    keeps types occurring at least min_freq times), ranked by proportion."""
    return _aggregate(partitions, min_freq, lambda p: p.external_mass, lambda p: p.internal_mass)


def word_peak_stats(partitions: Sequence[PartitionedAttention], min_freq: int = 5) -> RankedStats:
    """Like word_mass_stats but over per-occurrence attention peaks."""
    return _aggregate(partitions, min_freq, lambda p: p.external_peak, lambda p: p.internal_peak)


def majority_peak_stats(
    partitions: Sequence[PartitionedAttention],
    min_cases: int = 5,
    use_mass: bool = False,
) -> list[MajorityPeakStats]:
    """Occurrences whose external attention beats the internal one, per word.

    The comparison uses attention peaks by default (use_mass switches to
    total masses); words with fewer than min_cases qualifying occurrences are
    discarded; proportion = qualifying / total occurrences of the word.
    """
    rows = []
    for word, occs in _by_word(partitions).items():
        if use_mass:
            wins = sum(1 for o in occs if o.external_mass > o.internal_mass)
        else:
            wins = sum(1 for o in occs if o.external_peak > o.internal_peak)
        if wins < min_cases:
            continue
        rows.append(
            MajorityPeakStats(word=word, freq_ext_peak=wins, freq=len(occs), proportion=wins / len(occs))
        )
    rows.sort(key=lambda r: (-r.proportion, r.word))
    return rows


def corpus_external_proportion(partitions: Sequence[PartitionedAttention]) -> float:
    """Total external mass / total (external + internal) mass."""
    ext = sum(p.external_mass for p in partitions)
    total = sum(p.external_mass + p.internal_mass for p in partitions)
    return ext / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Report and heatmap rendering
# ---------------------------------------------------------------------------

def format_stats_table(stats: RankedStats) -> str:
    """TSV with the mass/peak table columns plus the average row."""
    lines = ["word\tfreq\texternal\tinternal\tprop.%\tpos"]
    for r in stats.rows:
        lines.append(
            "%s\t%d\t%.3f\t%.3f\t%.1f\t%.2f" % (r.word, r.freq, r.external, r.internal, r.proportion, r.mean_position)
        )
    a = stats.average
    lines.append("average\t%d\t%.3f\t%.3f\t%.1f\t" % (a.freq, a.external, a.internal, a.proportion))
    return "\n".join(lines) + "\n"


def format_majority_table(rows: Sequence[MajorityPeakStats]) -> str:
    lines = ["word\tproportion\tfreq ext peak\tfreq"]
    for r in rows:
        lines.append("%s\t%.3f\t%d\t%d" % (r.word, r.proportion, r.freq_ext_peak, r.freq))
    return "\n".join(lines) + "\n"


def heatmap_tsv(export: AttentionExport) -> str:
    """Label row + one row per output token; break tokens labelled "||"."""
    export.validate()

    def label(token: str) -> str:
        return "||" if token == export.break_token else token

    lines = ["\t" + "\t".join(label(t) for t in export.source_tokens)]
    for t, token in enumerate(export.target_tokens):
        cells = ["%.6f" % w for w in export.weights[t]]
        lines.append(label(token) + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def heatmap_pgm(export: AttentionExport) -> str:
    """Plain (P2) grayscale image, one pixel per cell; weight 1 -> black."""
    export.validate()
    h = max(1, len(export.target_tokens))
    w = max(1, len(export.source_tokens))
    lines = ["P2", "%d %d" % (w, h), "255"]
    if len(export.target_tokens) == 0:
        lines.append(" ".join(["255"] * w))
    for t in range(len(export.target_tokens)):
        row = np.clip(export.weights[t], 0.0, 1.0)
        lines.append(" ".join(str(int(round(255 * (1.0 - v)))) for v in row))
    return "\n".join(lines) + "\n"
