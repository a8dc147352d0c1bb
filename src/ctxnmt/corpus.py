"""Parallel corpus handling and context extension.

A corpus is an ordered list of TranslationUnit objects, grouped by document
(movie) in document order.  extend_corpus() runs a sliding window over each
document and builds context-extended examples, either prefix-marked (source
side only) or break-separated (source and/or target side).  Context never
crosses a document boundary.

Also contains a deterministic synthetic pronoun-disambiguation corpus
generator, over a fixed lexicon, used for desk-scale experiments.
"""

from __future__ import annotations

import contextlib
import enum
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_CONTEXT_PREFIX = "cc_"
DEFAULT_BREAK_TOKEN = "_BREAK_"


class Marking(enum.Enum):
    """How context tokens are distinguished from the focus segment."""

    PREFIX = "prefix"
    BREAK = "break"


@dataclass(frozen=True)
class TranslationUnit:
    """One aligned source/target segment pair within a document."""

    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]
    doc_id: str
    index_in_doc: int

    def __post_init__(self):
        tokens = self.source_tokens + self.target_tokens
        # str.split() splits at exactly the characters for which isspace() is
        # true, so this holds iff no token is empty or contains whitespace.
        if " ".join(tokens).split() != list(tokens):
            for tok in tokens:
                if not tok or any(c.isspace() for c in tok):
                    raise DataError(
                        "token %r is empty or contains whitespace (doc %s, unit %d)"
                        % (tok, self.doc_id, self.index_in_doc)
                    )
        if self.index_in_doc < 0:
            raise DataError(
                "negative index_in_doc in doc %s" % self.doc_id
            )


def make_unit(source: str, target: str, doc_id: str = "doc0", index_in_doc: int = 0) -> TranslationUnit:
    """Build a unit from space-separated token strings."""
    return TranslationUnit(
        source_tokens=tuple(source.split()),
        target_tokens=tuple(target.split()),
        doc_id=doc_id,
        index_in_doc=index_in_doc,
    )


@dataclass(frozen=True)
class ContextConfig:
    """Sliding-window geometry and marking convention.

    source_window / target_window count the preceding units concatenated on
    each side.  Prefix marking is only defined for source-only extension;
    two-sided extension always uses break tokens.
    """

    source_window: int = 0
    target_window: int = 0
    marking: Marking = Marking.BREAK
    context_prefix: str = DEFAULT_CONTEXT_PREFIX
    break_token: str = DEFAULT_BREAK_TOKEN

    def __post_init__(self):
        if self.source_window < 0 or self.target_window < 0:
            raise ConfigError("context windows must be >= 0")
        if self.target_window > 0 and self.marking is not Marking.BREAK:
            raise ConfigError("target-side context requires break marking")
        if not self.context_prefix:
            raise ConfigError("context_prefix must be non-empty")
        if not self.break_token or any(c.isspace() for c in self.break_token):
            raise ConfigError("break_token must be a single whitespace-free token")


@dataclass(frozen=True)
class ExtendedExample:
    """A context-extended instance with the focus span recorded as offsets."""

    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]
    source_focus_start: int
    target_focus_start: int
    origin: tuple[str, int]


def mark_context(tokens: Sequence[str], marking: Marking, prefix: str = DEFAULT_CONTEXT_PREFIX) -> list[str]:
    """Mark one context segment.

    PREFIX mode prepends `prefix` to every token; BREAK mode leaves tokens
    unchanged (break tokens are inserted by extend_corpus, between segments).
    """
    if marking is Marking.PREFIX:
        return [prefix + tok for tok in tokens]
    return list(tokens)


def _check_document_order(units: Sequence[TranslationUnit]):
    seen_docs = set()
    prev_doc = None
    for pos, unit in enumerate(units):
        if unit.doc_id != prev_doc:
            if unit.doc_id in seen_docs:
                raise DataError(
                    "doc %s is not contiguous (reappears at unit %d)" % (unit.doc_id, pos)
                )
            if unit.index_in_doc != 0:
                raise DataError(
                    "doc %s starts at index_in_doc %d, expected 0" % (unit.doc_id, unit.index_in_doc)
                )
            seen_docs.add(unit.doc_id)
            prev_doc = unit.doc_id
        else:
            if unit.index_in_doc != units[pos - 1].index_in_doc + 1:
                raise DataError(
                    "non-consecutive index_in_doc %d after %d in doc %s"
                    % (unit.index_in_doc, units[pos - 1].index_in_doc, unit.doc_id)
                )


def window_starts(doc_ids: Sequence[str], n: int) -> list[int]:
    """Where each segment's window begins: at most `n` segments back and never
    before its document's first segment, a change of doc id starting a
    document."""
    starts = []
    doc_start = 0
    prev = None
    for i, doc_id in enumerate(doc_ids):
        if doc_id != prev:
            doc_start, prev = i, doc_id
        starts.append(max(doc_start, i - n))
    return starts


def extend_corpus(units: Sequence[TranslationUnit], config: ContextConfig) -> list[ExtendedExample]:
    """Attach sliding-window context to every unit.

    Each document starts without context: the window never reaches across a
    document boundary, so the first unit of a document is emitted unchanged.
    Each unit is marked once per side (with its break token after it), and
    the marked units of a window go in front of the focus.  One
    ExtendedExample is produced per input unit, in corpus order.
    """
    _check_document_order(units)
    doc_ids = [u.doc_id for u in units]
    marking, prefix = config.marking, config.context_prefix
    brk = (config.break_token,) if marking is Marking.BREAK else ()
    contexts = []
    for window, segments in ((config.source_window, [u.source_tokens for u in units]),
                             (config.target_window, [u.target_tokens for u in units])):
        marked = [tuple(mark_context(seg, marking, prefix)) + brk for seg in segments] if window else []
        # a document's first unit has no context, and one marked unit is its context as it is
        contexts.append([() if lo == i else marked[lo] if lo == i - 1 else tuple(chain.from_iterable(marked[lo:i]))
                         for i, lo in enumerate(window_starts(doc_ids, window))])
    return [
        ExtendedExample(src + u.source_tokens, trg + u.target_tokens, len(src), len(trg), (u.doc_id, u.index_in_doc))
        for u, src, trg in zip(units, *contexts)
    ]


def extract_focus(example: ExtendedExample, side: str = "source") -> list[str]:
    """Return the focus-segment tokens of one side, without any marking.

    The focus span is taken from the recorded offset, never re-detected from
    markings; focus tokens are unmarked by construction.
    """
    if side == "source":
        return list(example.source_tokens[example.source_focus_start:])
    if side == "target":
        return list(example.target_tokens[example.target_focus_start:])
    raise ValueError("side must be 'source' or 'target', got %r" % side)


# ---------------------------------------------------------------------------
# Corpus files: .src/.trg (one unit per line, space-separated tokens),
# .docs (one doc_id per line, aligned 1:1).
# ---------------------------------------------------------------------------

def read_text(path, error=DataError) -> str:
    """Contents of a UTF-8 input file.  A file that cannot be read or is not
    valid UTF-8 raises `error` naming the path (and the line of the first
    bad byte)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error("cannot read %s: %s" % (path, exc.strerror or exc)) from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error("invalid UTF-8 at %s:%d" % (path, line)) from None


@contextlib.contextmanager
def open_output(path, mode="w"):
    """Write `path` through `path`.tmp, which replaces it only when the block
    completes, so a failed or interrupted write leaves any earlier file as it
    was.  Text is UTF-8 with LF endings; an unwritable path is a ConfigError."""
    tmp = "%s.tmp" % path
    try:
        with open(tmp, mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": "\n"})) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ConfigError("cannot write %s: %s" % (path, exc.strerror or exc)) from None
        raise


def read_doc_ids(path) -> list[str]:
    """The document id of each line, stripped; a blank line is a
    DataError naming path:line."""
    doc_ids = [line.strip() for line in read_text(path).splitlines()]
    for lineno, doc_id in enumerate(doc_ids, start=1):
        if not doc_id:
            raise DataError("empty doc_id", path=path, line=lineno)
    return doc_ids


def read_parallel_corpus(src_path, trg_path, docs_path) -> list[TranslationUnit]:
    """Load an aligned corpus from its three files."""
    src_lines = read_text(src_path).splitlines()
    trg_lines = read_text(trg_path).splitlines()
    doc_lines = read_doc_ids(docs_path)
    if not (len(src_lines) == len(trg_lines) == len(doc_lines)):
        raise DataError(
            "line counts differ: %d source, %d target, %d docs"
            % (len(src_lines), len(trg_lines), len(doc_lines)),
            path=src_path,
        )
    units: list[TranslationUnit] = []
    seen_docs = set()
    prev_doc = None
    index = 0
    for lineno, (src, trg, doc_id) in enumerate(zip(src_lines, trg_lines, doc_lines), start=1):
        if doc_id != prev_doc:
            if doc_id in seen_docs:
                raise DataError("doc %s is not contiguous" % doc_id, path=docs_path, line=lineno)
            seen_docs.add(doc_id)
            index = 0
            prev_doc = doc_id
        units.append(TranslationUnit(tuple(src.split()), tuple(trg.split()), doc_id, index))
        index += 1
    return units


def write_parallel_corpus(units: Iterable[TranslationUnit], src_path, trg_path, docs_path):
    """Write an aligned corpus to its three files (UTF-8, LF endings)."""
    units = list(units)
    write_lines(src_path, (" ".join(u.source_tokens) for u in units))
    write_lines(trg_path, (" ".join(u.target_tokens) for u in units))
    write_lines(docs_path, (u.doc_id for u in units))


def write_extended_corpus(examples: Iterable[ExtendedExample], src_path, trg_path, docs_path, meta_path):
    """Write extended examples and the meta sidecar that keeps focus offsets.

    Meta format (TSV): doc_id, index_in_doc, source_focus_start,
    target_focus_start.  Downstream stages read offsets from here instead of
    re-detecting markings.
    """
    examples = list(examples)
    write_lines(src_path, (" ".join(e.source_tokens) for e in examples))
    write_lines(trg_path, (" ".join(e.target_tokens) for e in examples))
    write_lines(docs_path, (e.origin[0] for e in examples))
    write_lines(
        meta_path,
        (
            "%s\t%d\t%d\t%d" % (e.origin[0], e.origin[1], e.source_focus_start, e.target_focus_start)
            for e in examples
        ),
    )


def read_extended_corpus(src_path, trg_path, meta_path) -> list[ExtendedExample]:
    """Load extended examples written by write_extended_corpus."""
    sources = [tuple(line.split()) for line in read_text(src_path).splitlines()]
    targets = [tuple(line.split()) for line in read_text(trg_path).splitlines()]
    if len(targets) != len(sources):
        raise DataError("%d target lines for %d source lines" % (len(targets), len(sources)), path=trg_path)
    rows = read_meta(meta_path, sources)
    examples = []
    for lineno, (src, trg, (doc_id, idx, src_start, trg_start)) in enumerate(zip(sources, targets, rows), start=1):
        if trg_start > len(trg):
            raise DataError(
                "target_focus_start %d beyond the %d target tokens" % (trg_start, len(trg)), path=meta_path, line=lineno
            )
        examples.append(ExtendedExample(src, trg, src_start, trg_start, origin=(doc_id, idx)))
    return examples


def read_meta(path, sources: Sequence[Sequence[str]]) -> list[tuple[str, int, int, int]]:
    """Parse the .meta file of the tokenized `sources`: per line, document id,
    index in the document, and the source and target focus offsets,
    tab-separated.  There is one row per source line, and each source focus
    offset lies within its line."""
    lines = read_text(path).splitlines()
    if len(lines) != len(sources):
        raise DataError("%d meta rows for %d source lines" % (len(lines), len(sources)), path=path)
    rows = []
    for lineno, (line, tokens) in enumerate(zip(lines, sources), start=1):
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError("expected 4 meta columns", path=path, line=lineno)
        try:
            numbers = [int(x) for x in parts[1:]]
        except ValueError:
            raise DataError("non-integer meta field", path=path, line=lineno) from None
        if min(numbers) < 0:
            raise DataError("negative meta field", path=path, line=lineno)
        if numbers[1] > len(tokens):
            raise DataError(
                "source_focus_start %d beyond the %d source tokens" % (numbers[1], len(tokens)), path=path, line=lineno
            )
        rows.append((parts[0], *numbers))
    return rows


def write_lines(path, lines: Iterable[str]):
    with open_output(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Synthetic pronoun-disambiguation corpus.
#
# Documents alternate between antecedent units ("der Hund schlief ." ->
# "the Hund slept .") and pronoun units whose source is identical across
# antecedent classes ("dann traeumte sie ." -> "then he/she/it/they dreamed .").
# Only the previous unit disambiguates the target pronoun.
# ---------------------------------------------------------------------------

DEFAULT_LEXICON: tuple[tuple[str, str], ...] = (
    ("Hund", "masc"),
    ("Vogel", "masc"),
    ("Mond", "masc"),
    ("Katze", "fem"),
    ("Sonne", "fem"),
    ("Lampe", "fem"),
    ("Pferd", "neut"),
    ("Boot", "neut"),
    ("Licht", "neut"),
    ("Kinder", "plural"),
    ("Wolken", "plural"),
    ("Pferde", "plural"),
)

DEFAULT_PRONOUN_MAP = {"fem": "she", "masc": "he", "neut": "it", "plural": "they"}

_DETERMINER = {"fem": "die", "masc": "der", "neut": "das", "plural": "die"}
_INTRO_VERBS = (("schlief", "slept"), ("wartete", "waited"), ("sang", "sang"), ("lachte", "laughed"))
_PRON_VERBS = (("traeumte", "dreamed"), ("blieb", "stayed"), ("fiel", "fell"), ("rief", "called"))
_AMBIGUOUS_PRONOUN = "sie"


@dataclass(frozen=True)
class SynthSpec:
    """Size and seed of a synthetic corpus; its nouns and their pronouns are
    always DEFAULT_LEXICON and DEFAULT_PRONOUN_MAP."""

    num_docs: int = 100
    units_per_doc: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_docs < 0 or self.units_per_doc < 0:
            raise ConfigError("num_docs and units_per_doc must be >= 0")


def generate_synthetic_corpus(spec: SynthSpec) -> list[TranslationUnit]:
    """Generate documents of alternating antecedent / pronoun units.

    Unit 2k introduces an antecedent noun; unit 2k+1 contains the ambiguous
    pronoun whose correct translation is fixed by the antecedent's class.
    Deterministic for a given rng_seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed))
    units: list[TranslationUnit] = []
    for d in range(spec.num_docs):
        doc_id = "synth-%05d" % d
        current_class = None
        for i in range(spec.units_per_doc):
            if i % 2 == 0:
                noun, current_class = DEFAULT_LEXICON[rng.integers(len(DEFAULT_LEXICON))]
                v_de, v_en = _INTRO_VERBS[rng.integers(len(_INTRO_VERBS))]
                src = (_DETERMINER[current_class], noun, v_de, ".")
                trg = ("the", noun, v_en, ".")
            else:
                v_de, v_en = _PRON_VERBS[rng.integers(len(_PRON_VERBS))]
                pron = DEFAULT_PRONOUN_MAP[current_class]
                src = ("dann", v_de, _AMBIGUOUS_PRONOUN, ".")
                trg = ("then", pron, v_en, ".")
            units.append(TranslationUnit(src, trg, doc_id, i))
    return units
