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

Both metrics count n-grams with numpy over one symbol stream
(`_clipped_ngram_totals`): word ids for BLEU, dense code-point ranks for
chrF, the hypothesis and reference segments of each pair side by side.  The
stream is cut into chunks of whole pairs.  In a chunk the id of an n-gram is
polynomial, id_n = id_(n-1) x alphabet + last symbol, and its key is
(id x pairs + pair) x 2 + side.  One sort of the keys per order places the
hypothesis run of each (pair, n-gram) right before its reference run, and
the clipped matches are the shorter of the two runs.  The n-gram totals of
each side are counts of in-segment positions and need no sort.  An order
whose keys could reach 2^62 first re-ranks the (n-1)-gram ids densely, so
every total is an exact integer.  In the `prep-analyze` benchmark, scoring
1,000 lines in both regimes (`score`, 2,000 segments) takes a median of
0.14 s on a 2-vCPU Intel Xeon, against 0.44 s when each order made three
`np.unique` calls and one `intersect1d` per chunk."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count
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
# megabyte whatever the corpus size (scoring the 2,000 extended
# `prep-analyze` segments has a tracemalloc peak of about 4.7 MB; unchunked,
# about 29 MB).
_CHUNK_SYMBOLS = 8192

# Every n-gram key stays below this, so no int64 product can wrap.
_KEY_LIMIT = 2**62


def _interleave(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> list[TokenSeq]:
    """The segments in stream order: hypothesis 0, reference 0, hypothesis 1,
    ...; lists of different lengths are an InputError."""
    if len(hypotheses) != len(references):
        raise InputError(
            "hypothesis/reference length mismatch: %d vs %d" % (len(hypotheses), len(references))
        )
    return [segment for pair in zip(hypotheses, references) for segment in pair]


def _clipped_ngram_totals(
    symbols: np.ndarray, lengths: np.ndarray, alphabet: int, max_n: int
) -> tuple[list[int], list[int], list[int]]:
    """Corpus totals of hypothesis n-grams, reference n-grams and clipped
    matches, each a list over the orders n = 1..max_n.

    `symbols` is the integer stream of all segments in `_interleave` order,
    each symbol a rank in [0, alphabet), and `lengths` the segment lengths in
    the same order.  An n-gram of a hypothesis segment matches at most as often
    as it occurs in the reference segment of its pair.
    """
    hyp_lengths, ref_lengths = lengths[0::2], lengths[1::2]
    orders = range(max_n)
    hyp_totals = [int(np.maximum(hyp_lengths - k, 0).sum()) for k in orders]
    ref_totals = [int(np.maximum(ref_lengths - k, 0).sum()) for k in orders]
    matches = [0] * max_n
    # a pair takes one symbol more than it holds, so that empty pairs too
    # fill a chunk and the segment count of a chunk stays bounded
    pair_ends = np.cumsum(hyp_lengths + ref_lengths + 1)
    segment_ends = np.cumsum(lengths)
    start = first = 0
    while start < len(pair_ends):
        filled = pair_ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(pair_ends, filled + _CHUNK_SYMBOLS, "right")), start + 1)
        last = int(segment_ends[2 * stop - 1])
        _count_chunk(symbols[first:last], lengths[2 * start : 2 * stop], alphabet, matches)
        start, first = stop, last
    return hyp_totals, ref_totals, matches


def _count_chunk(symbols: np.ndarray, lengths: np.ndarray, alphabet: int, matches: list[int]) -> None:
    """Add one chunk's clipped matches to the per-order `matches`; `symbols`
    and `lengths` are the chunk's slices of the stream and of its lengths.
    As the segments alternate, id x segments + segment is the key
    (id x pairs + pair) x 2 + side of the module docstring."""
    symbols = symbols.astype(np.int64)
    segments = len(lengths)
    segment_of = np.repeat(np.arange(segments), lengths)
    # symbols from each position to the end of its segment: an n-gram starts there when n <= left
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(symbols))
    ids, bound = symbols, alphabet
    for n in range(1, len(matches) + 1):
        if n > 1:
            if bound * alphabet * segments > _KEY_LIMIT:
                # keys could reach the limit: re-rank the (n-1)-gram ids densely
                # first, after which the keys stay below chunk symbols x
                # alphabet x segments (at most 2 x _CHUNK_SYMBOLS segments)
                distinct, ids = np.unique(ids, return_inverse=True)
                bound = len(distinct)
            ids = ids[:-1] * alphabet + symbols[n - 1 :]
            bound *= alphabet
        m = len(ids)
        keys = (ids * segments + segment_of[:m])[left[:m] >= n]
        if len(keys) < 2:
            break  # no order from here on has two n-grams to match
        keys.sort()
        run_bounds = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
        run_keys = keys[run_bounds[:-1]]
        run_lengths = np.diff(run_bounds)
        shared = run_keys[:-1] == run_keys[1:] ^ 1
        matches[n - 1] += int((np.minimum(run_lengths[:-1], run_lengths[1:]) * shared).sum())


def bleu(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> BleuScore:
    """Corpus-level BLEU-4 over tokenized hypothesis/reference lists."""
    segments = _interleave(hypotheses, references)
    lengths = np.fromiter(map(len, segments), dtype=np.int64, count=len(segments))
    word_ids: defaultdict[str, int] = defaultdict(count().__next__)
    symbols = np.fromiter(
        map(word_ids.__getitem__, chain.from_iterable(segments)), dtype=np.int32, count=int(lengths.sum())
    )
    totals, _, matches = _clipped_ngram_totals(symbols, lengths, len(word_ids), BLEU_MAX_ORDER)
    hyp_len = int(lengths[0::2].sum())
    ref_len = int(lengths[1::2].sum())

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


def chrf(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> ChrFScore:
    """chrF3: character 6-gram F-score with recall weighted 3 times precision."""
    # each segment's character stream is its tokens joined by single spaces
    texts = [" ".join(segment) for segment in _interleave(hypotheses, references)]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    code_points = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
    # dense ranks through a table over the code points up to the largest one
    present = np.zeros(int(code_points.max(initial=0)) + 1, dtype=bool)
    present[code_points] = True
    ranks = np.cumsum(present, dtype=np.int32) - 1
    hyp_totals, ref_totals, match_totals = _clipped_ngram_totals(
        ranks[code_points], lengths, int(ranks[-1]) + 1, CHRF_MAX_N
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
        raise InputError(
            "unit lists and doc ids must be aligned: %d hypothesis units, %d reference units, %d doc ids"
            % (len(hyp_units), len(ref_units), len(doc_ids))
        )
    hyp_kept = [[t for t in tokens if t != break_token] for tokens in hyp_units]
    ref_kept = [[t for t in tokens if t != break_token] for tokens in ref_units]
    hyp_segments = []
    ref_segments = []
    doc_start = 0
    for i in range(len(doc_ids)):
        if i and doc_ids[i] != doc_ids[i - 1]:
            doc_start = i
        lo = max(doc_start, i - window + 1)
        hyp_segments.append(list(chain.from_iterable(hyp_kept[lo : i + 1])))
        ref_segments.append(list(chain.from_iterable(ref_kept[lo : i + 1])))
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
