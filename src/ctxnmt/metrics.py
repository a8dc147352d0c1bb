"""Translation evaluation: BLEU, chrF3, extended-segment scoring, pronoun
category evaluation, and the 2x2 chi-square test.

BLEU is corpus-level with clipped modified n-gram precisions (n = 1..4, flat
weights), exponential brevity penalty, and no smoothing; n-gram orders for
which the hypothesis corpus has no n-grams at all are dropped from the
geometric mean so that identity corpora of very short segments still score 1.

chrF operates on the character stream obtained by joining tokens with single
spaces (spaces participate in n-grams), n = 1..6, uniform average over
orders, with recall weighted by beta = 3 (chrF3).  Neither metric takes
other orders or weights.

Both metrics count n-grams in one numpy pass over a chunk of segment pairs
(`_clipped_ngram_totals`): symbols are word ids for BLEU and code points for
chrF; the id of an n-gram is the dense rank of (its (n-1)-gram prefix id, its
last symbol); (segment, n-gram) keys are counted per side and the clipped
matches are the minimum of the two counts of each shared key.  Scoring the
1,000 `prep-analyze` lines in both regimes (`score`, 2,000 segments) takes
about 0.35 s on a 2-vCPU Intel Xeon, against about 2.3 s with per-segment
Counters."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import DEFAULT_BREAK_TOKEN
from .errors import ConfigError, InputError

TokenSeq = Sequence[str]

CHI_SQUARE_CRITICAL_05 = 3.841  # 1 degree of freedom
BLEU_MAX_ORDER = 4
CHRF_BETA = 3.0
CHRF_MAX_N = 6


@dataclass(frozen=True)
class BleuScore:
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


@dataclass(frozen=True)
class ChrFScore:
    score: float
    precision: float
    recall: float


# Segment pairs are counted a chunk at a time, each chunk holding about this
# many symbols of both sides together, so that the key arrays stay under a
# megabyte whatever the corpus size (unchunked, scoring the 2,000 extended
# `prep-analyze` segments had a tracemalloc peak of about 45 MB).
_CHUNK_SYMBOLS = 8192


def _clipped_ngram_totals(
    hypotheses: list[np.ndarray], references: list[np.ndarray], max_n: int
) -> tuple[list[int], list[int], list[int]]:
    """Corpus totals of hypothesis n-grams, reference n-grams and clipped
    matches, each a list over the orders n = 1..max_n.

    `hypotheses` and `references` are aligned integer symbol arrays (lists
    of different lengths are an InputError); an n-gram of a hypothesis
    segment matches at most as often as it occurs in the aligned reference
    segment.
    """
    if len(hypotheses) != len(references):
        raise InputError(
            "hypothesis/reference length mismatch: %d vs %d" % (len(hypotheses), len(references))
        )
    totals = ([0] * max_n, [0] * max_n, [0] * max_n)
    start = 0
    while start < len(hypotheses):
        stop = start + 1
        size = len(hypotheses[start]) + len(references[start])
        while stop < len(hypotheses) and size + len(hypotheses[stop]) + len(references[stop]) <= _CHUNK_SYMBOLS:
            size += len(hypotheses[stop]) + len(references[stop])
            stop += 1
        _count_chunk(hypotheses[start:stop] + references[start:stop], stop - start, *totals)
        start = stop
    return totals


def _count_chunk(
    streams: list[np.ndarray], pairs: int, hyp_totals: list[int], ref_totals: list[int], matches: list[int]
) -> None:
    """Add one chunk's counts to the per-order totals; `streams` holds the
    chunk's `pairs` hypothesis segments followed by their references."""
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    symbols = np.concatenate(streams).astype(np.int64)
    stream_ends = np.repeat(np.cumsum(lengths), lengths)
    pair_index = np.repeat(np.arange(2 * pairs) % pairs, lengths)
    from_hyp = np.repeat(np.arange(2 * pairs) < pairs, lengths)
    positions = np.arange(len(symbols))
    alphabet, rank = np.unique(symbols, return_inverse=True)
    ids = rank
    for n in range(1, len(matches) + 1):
        if n > 1:
            # n-gram at i = ((n-1)-gram at i, symbol at i+n-1); dense ranks keep ids below len(symbols)
            _, ids = np.unique(ids[:-1] * len(alphabet) + rank[n - 1 :], return_inverse=True)
        m = len(ids)
        inside = positions[:m] + n <= stream_ends[:m]
        keys = pair_index[:m] * m + ids
        hyp_keys, hyp_counts = np.unique(keys[inside & from_hyp[:m]], return_counts=True)
        ref_keys, ref_counts = np.unique(keys[inside & ~from_hyp[:m]], return_counts=True)
        _, hi, ri = np.intersect1d(hyp_keys, ref_keys, assume_unique=True, return_indices=True)
        hyp_totals[n - 1] += int(hyp_counts.sum())
        ref_totals[n - 1] += int(ref_counts.sum())
        matches[n - 1] += int(np.minimum(hyp_counts[hi], ref_counts[ri]).sum())


def bleu(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> BleuScore:
    """Corpus-level BLEU-4 over tokenized hypothesis/reference lists."""
    word_ids: dict[str, int] = {}

    def to_ids(tokens: TokenSeq) -> np.ndarray:
        return np.array([word_ids.setdefault(t, len(word_ids)) for t in tokens], dtype=np.int64)

    totals, _, matches = _clipped_ngram_totals(
        [to_ids(h) for h in hypotheses], [to_ids(r) for r in references], BLEU_MAX_ORDER
    )
    hyp_len = sum(len(hyp) for hyp in hypotheses)
    ref_len = sum(len(ref) for ref in references)

    precisions = tuple(
        (matches[i] / totals[i]) if totals[i] > 0 else 0.0 for i in range(BLEU_MAX_ORDER)
    )
    if hyp_len == 0:
        return BleuScore(0.0, precisions, 0.0, 0, ref_len)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    used = [precisions[i] for i in range(BLEU_MAX_ORDER) if totals[i] > 0]
    if not used or any(p == 0.0 for p in used):
        return BleuScore(0.0, precisions, bp, hyp_len, ref_len)
    log_mean = sum(math.log(p) for p in used) / len(used)
    return BleuScore(bp * math.exp(log_mean), precisions, bp, hyp_len, ref_len)


def _code_points(tokens: TokenSeq) -> np.ndarray:
    """The character stream of a segment (tokens joined by single spaces)."""
    return np.frombuffer(" ".join(tokens).encode("utf-32-le"), dtype=np.uint32)


def chrf(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> ChrFScore:
    """chrF3: character 6-gram F-score with recall weighted 3 times precision."""
    hyp_totals, ref_totals, match_totals = _clipped_ngram_totals(
        [_code_points(h) for h in hypotheses], [_code_points(r) for r in references], CHRF_MAX_N
    )

    prec_terms = [match_totals[i] / hyp_totals[i] for i in range(CHRF_MAX_N) if hyp_totals[i] > 0]
    rec_terms = [match_totals[i] / ref_totals[i] for i in range(CHRF_MAX_N) if ref_totals[i] > 0]
    precision = sum(prec_terms) / len(prec_terms) if prec_terms else 0.0
    recall = sum(rec_terms) / len(rec_terms) if rec_terms else 0.0
    if precision + recall == 0.0:
        return ChrFScore(0.0, precision, recall)
    b2 = CHRF_BETA * CHRF_BETA
    score = (1 + b2) * precision * recall / (b2 * precision + recall)
    return ChrFScore(score, precision, recall)


def score_extended(
    hyp_units: Sequence[TokenSeq],
    ref_units: Sequence[TokenSeq],
    doc_ids: Sequence[str],
    window: int = 2,
    break_token: str = DEFAULT_BREAK_TOKEN,
) -> tuple[BleuScore, ChrFScore]:
    """Score sliding-window concatenations of aligned units.

    For every unit, up to `window` consecutive units ending at it (never
    crossing a document boundary) are concatenated on both sides; break
    tokens are removed before scoring.  A window below 1 is a ConfigError.
    """
    if window < 1:
        raise ConfigError("window must be >= 1, got %d" % window)
    if not (len(hyp_units) == len(ref_units) == len(doc_ids)):
        raise InputError("unit lists and doc ids must be aligned")

    def strip_breaks(tokens: TokenSeq) -> list[str]:
        return [t for t in tokens if t != break_token]

    hyp_segments = []
    ref_segments = []
    for i in range(len(hyp_units)):
        lo = i
        while lo > 0 and i - lo < window - 1 and doc_ids[lo - 1] == doc_ids[i]:
            lo -= 1
        hyp_cat: list[str] = []
        ref_cat: list[str] = []
        for j in range(lo, i + 1):
            hyp_cat.extend(strip_breaks(hyp_units[j]))
            ref_cat.extend(strip_breaks(ref_units[j]))
        hyp_segments.append(hyp_cat)
        ref_segments.append(ref_cat)
    return bleu(hyp_segments, ref_segments), chrf(hyp_segments, ref_segments)


# ---------------------------------------------------------------------------
# Pronoun evaluation
# ---------------------------------------------------------------------------

CATEGORY_POLITE_IMPERATIVE = "polite_imperative"
CATEGORY_POLITE_OTHER = "polite_other"
CATEGORY_FEM_SINGULAR = "feminine_singular"
CATEGORY_PLURAL = "plural"
CATEGORY_UNKNOWN = "unknown"

SIE_CATEGORIES = (
    CATEGORY_POLITE_IMPERATIVE,
    CATEGORY_POLITE_OTHER,
    CATEGORY_FEM_SINGULAR,
    CATEGORY_PLURAL,
)

# pronoun classes used for automatic correctness judgments: a translation is
# correct when it realizes the same class as the reference (or also drops the
# pronoun when the reference does)
SIE_PRONOUN_CLASSES: Mapping[str, tuple[str, ...]] = {
    "you": ("you",),
    "she_her": ("she", "her"),
    "it": ("it",),
    "they_them": ("they", "them"),
}
_CATEGORY_OF_CLASS = {
    "you": CATEGORY_POLITE_OTHER,
    "she_her": CATEGORY_FEM_SINGULAR,
    "it": CATEGORY_FEM_SINGULAR,
    "they_them": CATEGORY_PLURAL,
}

_SUBJECT_OPENERS = {
    "i", "you", "he", "she", "it", "we", "they", "there", "that", "this",
    "what", "who", "the", "a", "an", "no", "yes", "-",
}


@dataclass
class PronounOccurrence:
    """One occurrence of the ambiguous pronoun, with aligned translations."""

    source_tokens: tuple[str, ...]
    reference_tokens: tuple[str, ...]
    system_translations: dict[str, tuple[str, ...]] = field(default_factory=dict)
    category: str = CATEGORY_UNKNOWN
    correct: dict[str, bool] = field(default_factory=dict)


def _imperative_shaped(tokens: TokenSeq) -> bool:
    # heuristic: does not open with a subject-like token and looks like a
    # short command ("Kommen Sie !" -> "Come !")
    if not tokens:
        return False
    if tokens[0].lower() in _SUBJECT_OPENERS:
        return False
    return tokens[-1] in ("!", ".") or len(tokens) <= 4


def categorize_pronoun(occurrence: PronounOccurrence) -> str:
    """Categorize one occurrence by the SIE_PRONOUN_CLASSES class its
    reference realizes; a reference without one is a polite imperative when
    it is shaped like a command, and unknown otherwise."""
    ref_class = pronoun_class(occurrence.reference_tokens)
    if ref_class is None:
        return CATEGORY_POLITE_IMPERATIVE if _imperative_shaped(occurrence.reference_tokens) else CATEGORY_UNKNOWN
    return _CATEGORY_OF_CLASS[ref_class]


def pronoun_class(tokens: TokenSeq, classes: Mapping[str, tuple[str, ...]] = SIE_PRONOUN_CLASSES):
    """First pronoun class (in mapping priority order) realized in `tokens`.

    Priority order is the category cascade of categorize_pronoun, so a
    sentence containing both "you" and "them" is judged as a polite-you
    case.  Returns None when no class is realized.
    """
    low = {t.lower() for t in tokens}
    for name, forms in classes.items():
        if any(form in low for form in forms):
            return name
    return None


def judge_pronoun(
    reference_tokens: TokenSeq,
    hypothesis_tokens: TokenSeq,
    classes: Mapping[str, tuple[str, ...]] = SIE_PRONOUN_CLASSES,
) -> bool:
    """Automatic correctness: hypothesis realizes the reference's class."""
    return pronoun_class(hypothesis_tokens, classes) == pronoun_class(reference_tokens, classes)


def extract_pronoun_occurrences(
    source_units: Sequence[TokenSeq],
    reference_units: Sequence[TokenSeq],
    system_units: Mapping[str, Sequence[TokenSeq]],
    pronoun_forms: tuple[str, ...] = ("sie", "Sie"),
) -> list[PronounOccurrence]:
    """Collect occurrences of the ambiguous pronoun with aligned translations."""
    if len(source_units) != len(reference_units):
        raise InputError("source/reference unit counts differ")
    for name, units in system_units.items():
        if len(units) != len(source_units):
            raise InputError("system %r unit count differs from source" % name)
    occurrences = []
    for i, src in enumerate(source_units):
        for tok in src:
            if tok in pronoun_forms:
                occ = PronounOccurrence(
                    source_tokens=tuple(src),
                    reference_tokens=tuple(reference_units[i]),
                    system_translations={
                        name: tuple(units[i]) for name, units in system_units.items()
                    },
                )
                occ.category = categorize_pronoun(occ)
                occurrences.append(occ)
    return occurrences


def judge_occurrences(
    occurrences: Sequence[PronounOccurrence],
    classes: Mapping[str, tuple[str, ...]] = SIE_PRONOUN_CLASSES,
):
    """Fill per-system correctness (judge_pronoun) for every occurrence, in
    place.  A hypothesis that drops a pronoun the reference has is wrong."""
    for occ in occurrences:
        for name, hyp in occ.system_translations.items():
            occ.correct[name] = judge_pronoun(occ.reference_tokens, hyp, classes)


@dataclass
class PronounCategoryRow:
    category: str
    occurrences: int
    correct: dict[str, int]

    def accuracy(self, system: str):
        if self.occurrences == 0:
            return None
        return self.correct[system] / self.occurrences


@dataclass
class PronounReport:
    systems: tuple[str, ...]
    rows: list[PronounCategoryRow]
    total: PronounCategoryRow
    unknown_count: int

    def counts_2x2(self, system_a: str, system_b: str):
        """(correct_a, wrong_a, correct_b, wrong_b) over all categories."""
        n = self.total.occurrences
        ca, cb = self.total.correct[system_a], self.total.correct[system_b]
        return ca, n - ca, cb, n - cb


def pronoun_accuracy(
    occurrences: Sequence[PronounOccurrence],
    systems: Sequence[str],
    categories: Sequence[str] = SIE_CATEGORIES,
) -> PronounReport:
    """Per-category and overall accuracy per system.

    Occurrences with category `unknown` are excluded from the table but counted.
    """
    rows = []
    for cat in categories:
        cat_occ = [o for o in occurrences if o.category == cat]
        rows.append(
            PronounCategoryRow(
                category=cat,
                occurrences=len(cat_occ),
                correct={s: sum(1 for o in cat_occ if o.correct.get(s)) for s in systems},
            )
        )
    unknown = sum(1 for o in occurrences if o.category not in categories)
    known = [o for o in occurrences if o.category in categories]
    total = PronounCategoryRow(
        category="all",
        occurrences=len(known),
        correct={s: sum(1 for o in known if o.correct.get(s)) for s in systems},
    )
    return PronounReport(systems=tuple(systems), rows=rows, total=total, unknown_count=unknown)


def chi_square_2x2(correct_a: int, wrong_a: int, correct_b: int, wrong_b: int):
    """Pearson chi-square without continuity correction, 1 d.f., p = 0.05.

    Returns (statistic, significant_at_0_05).
    """
    for v in (correct_a, wrong_a, correct_b, wrong_b):
        if v < 0:
            raise InputError("counts must be non-negative")
    a, b, c, d = correct_a, wrong_a, correct_b, wrong_b
    n = a + b + c + d
    margins = ((a + b), (c + d), (a + c), (b + d))
    if any(m == 0 for m in margins):
        raise InputError("chi-square undefined: zero row or column margin")
    stat = n * (a * d - b * c) ** 2 / (margins[0] * margins[1] * margins[2] * margins[3])
    return stat, stat > CHI_SQUARE_CRITICAL_05


# ---------------------------------------------------------------------------
# Report formatting (TSV; percentages with 1 decimal, metric scores with 2)
# ---------------------------------------------------------------------------

def format_score_report(rows: Sequence[tuple[str, BleuScore, ChrFScore]]) -> str:
    """One row per system: BLEU, chrF3, precision, recall (in %)."""
    lines = ["system\tBLEU\tchrF3\tprecision\trecall"]
    for name, b, c in rows:
        lines.append(
            "%s\t%.2f\t%.2f\t%.2f\t%.2f"
            % (name, 100 * b.score, 100 * c.score, 100 * c.precision, 100 * c.recall)
        )
    return "\n".join(lines) + "\n"


def format_pronoun_report(report: PronounReport) -> str:
    """One row per category: occurrences and accuracy per system."""
    header = ["category", "occurrences"] + list(report.systems)
    lines = ["\t".join(header)]

    def fmt(row: PronounCategoryRow) -> str:
        cells = [row.category, str(row.occurrences)]
        for s in report.systems:
            acc = row.accuracy(s)
            cells.append("" if acc is None else "%.1f" % (100 * acc))
        return "\t".join(cells)

    for row in report.rows:
        lines.append(fmt(row))
    lines.append(fmt(report.total))
    lines.append("unknown\t%d" % report.unknown_count + "\t" * len(report.systems))
    return "\n".join(lines) + "\n"
