"""Byte-pair-encoding subword model.

learn_bpe() iterates most-frequent-adjacent-pair merging over a word
frequency map; apply_bpe() replays the merges on a token and enforces a
vocabulary count threshold by recursively splitting rare subwords back into
their merge parts.  Words are learned with the end-of-word marker EOW_MARKER
("</w>") as their last symbol; emitted subwords carry the join marker
JOIN_MARKER ("@@") on every non-final piece so that revert_bpe() can
losslessly restore the original tokens.  Both markers are fixed: a model file
that names any other marker is malformed.

Reserved strings: the break token, context-prefixed tokens, and any token
containing either marker are never segmented (they pass through apply_bpe
verbatim; see protection()).  Tokens that *end* with the join marker cannot
be represented unambiguously and are outside the format's domain.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .corpus import ContextConfig, open_output, read_text
from .errors import ConfigError, MalformedSegmentationError

EOW_MARKER = "</w>"
JOIN_MARKER = "@@"


@dataclass(frozen=True)
class BpeConfig:
    """Code size and application settings for one experiment."""

    num_merges: int = 300
    vocab_threshold: int = 0

    def __post_init__(self):
        if self.num_merges < 0:
            raise ConfigError("num_merges must be >= 0")
        if self.vocab_threshold < 0:
            raise ConfigError("vocab_threshold must be >= 0")


@dataclass
class BpeModel:
    """Ordered merge rules plus the subword vocabulary of the learning corpus.

    subword_vocab is keyed by emitted form (join marker included on non-final
    pieces), which is what the application threshold is checked against.
    Construction also builds `ranks` (pair -> first position in merges),
    `reverse` (merged string -> the first merge that spells it) and an empty
    segmentation cache `_cache`, keyed by (token, vocab_threshold).
    """

    merges: tuple[tuple[str, str], ...]
    subword_vocab: dict[str, int]

    def __post_init__(self):
        self.ranks: dict[tuple[str, str], int] = {}
        self.reverse: dict[str, tuple[str, str]] = {}
        for i, (left, right) in enumerate(self.merges):
            self.ranks.setdefault((left, right), i)
            self.reverse.setdefault(left + right, (left, right))
        self._cache: dict[tuple[str, int], tuple[str, ...]] = {}


def _pair_sort_key(pair: tuple[str, str]):
    # content merges win ties against marker merges; plain string order otherwise
    left, right = pair
    return (EOW_MARKER in left, EOW_MARKER in right, left, right)


def _emit(symbols: Sequence[str]) -> list[str]:
    """Convert internal symbols (end-of-word marker last) to emitted subwords."""
    if not symbols:
        return []
    if symbols[-1] == EOW_MARKER:
        body = list(symbols[:-1])
    else:
        body = list(symbols[:-1]) + [symbols[-1][: -len(EOW_MARKER)]]
    if not body:
        return []
    return [s + JOIN_MARKER for s in body[:-1]] + [body[-1]]


def learn_bpe(word_frequencies: Mapping[str, int], num_merges: int) -> BpeModel:
    """Learn merge operations from a word frequency map.

    Performs min(num_merges, available) merges; at each step the most
    frequent adjacent symbol pair is merged, ties broken lexicographically on
    (left, right) with marker-bearing symbols ordered last.

    Pair counts are kept live (Sennrich et al. 2016): an index from pair to
    the words containing it limits each merge to those words, and in each
    only the adjacencies beside a merge change.  A merge at j removes the old
    pairs (k, k+1) for k in {j-1, j, j+1} and adds the pairs on either side
    of the merged symbol; each pair is counted once where two merges touch,
    so overlapping repeats stay exact ("a a a a </w>" with (a, a) loses three
    (a, a) and one (a, </w>) and gains (aa, aa) and (aa, </w>)).  Only the
    new pairs are indexed.  A stale word in the index, one that no longer
    holds the merged pair, is skipped.

    The best pair comes from a lazy max-heap.  A merge only removes
    adjacencies or creates ones that contain the merged symbol, so after it
    only pairs containing that symbol get a fresh entry; any other entry can
    only over-estimate its pair's count.  The top entry is taken when its
    count is the live one, re-filed at the live count when it is not, and
    dropped when its pair is gone, which keeps "largest count, then smallest
    _pair_sort_key" exact.
    """
    if num_merges < 0:
        raise ConfigError("num_merges must be >= 0")
    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    for word, count in word_frequencies.items():
        if count <= 0:
            raise ConfigError("word frequency for %r must be > 0" % word)
        if any(ch.isspace() for ch in word):
            raise ConfigError("cannot learn from a word containing whitespace: %r" % word)
        words.append(tuple(word) + (EOW_MARKER,))
        freqs.append(count)

    stats: dict[tuple[str, str], int] = {}
    index: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, word in enumerate(words):
        for pair in zip(word, word[1:]):
            stats[pair] = stats.get(pair, 0) + freqs[i]
            index[pair].add(i)

    # (-count, *_pair_sort_key(pair)): the smallest entry is the best pair, and
    # a pair's largest entry is never below its live count (see docstring)
    heap = [(-count, *_pair_sort_key(pair)) for pair, count in stats.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(merges) < num_merges and heap:
        neg_count, _, _, left, right = heap[0]
        best = (left, right)
        live = stats.get(best)
        if live is None:
            heapq.heappop(heap)
            continue
        if live != -neg_count:
            heapq.heapreplace(heap, (-live, *_pair_sort_key(best)))
            continue
        merges.append(best)
        merged = left + right
        grown = set()
        for i in index.pop(best):
            old, count = words[i], freqs[i]
            # merge positions, left to right and non-overlapping
            at = []
            j, last = 0, len(old) - 1
            while left in old[j:last]:
                j = old.index(left, j, last)
                if old[j + 1] == right:
                    at.append(j)
                    j += 2
                else:
                    j += 1
            if not at:
                continue
            new = []
            start = 0
            for j in at:
                new.extend(old[start:j])
                new.append(merged)
                start = j + 2
            new.extend(old[start:])
            words[i] = new = tuple(new)
            # the old pairs (k, k+1) that a merge at j breaks: k in {j-1, j, j+1}
            done = 0
            for j in at:
                for k in range(max(j - 1, done), min(j + 2, last)):
                    pair = (old[k], old[k + 1])
                    remaining = stats[pair] - count
                    if remaining:
                        stats[pair] = remaining
                    else:
                        del stats[pair]
                done = min(j + 2, last)
            # the new pairs (k, k+1) beside the merged symbol at p = j - m: k in {p-1, p}
            done, last = 0, len(new) - 1
            for m, j in enumerate(at):
                p = j - m
                for k in range(max(p - 1, done), min(p + 1, last)):
                    pair = (new[k], new[k + 1])
                    stats[pair] = stats.get(pair, 0) + count
                    index[pair].add(i)
                    grown.add(pair)
                done = min(p + 1, last)
        for pair in grown:
            if pair in stats:
                heapq.heappush(heap, (-stats[pair], *_pair_sort_key(pair)))

    # free the pair tables before BpeModel builds its ranks and reverse tables,
    # so that building them does not raise the peak memory of learning
    del stats, index, heap
    counts: Counter = Counter()
    for word, count in zip(words, freqs):
        for piece in _emit(word):
            counts[piece] += count
    return BpeModel(merges=tuple(merges), subword_vocab=dict(counts))


def protection(context: ContextConfig):
    """The predicate for tokens apply_bpe must pass through unsegmented: the
    break token and the context-prefixed tokens of `context`, and tokens
    containing either marker."""
    break_token, context_prefix = context.break_token, context.context_prefix
    return lambda token: (
        token == break_token
        or token.startswith(context_prefix)
        or EOW_MARKER in token
        or JOIN_MARKER in token
    )


default_protected = protection(ContextConfig())


def _enforce_threshold(model: BpeModel, word: tuple[str, ...], threshold: int) -> tuple[str, ...]:
    """Split symbols whose emitted form is rarer than `threshold`.

    Splitting replaces a symbol by its two merge parts; the scan restarts
    because splitting the word-final symbol shifts finality (and thus the
    emitted form) onto its left part.  Original characters and the bare
    end-of-word marker are never split.
    """
    symbols = list(word)
    while True:
        pieces = _emit(symbols)
        content = symbols[:-1] if symbols and symbols[-1] == EOW_MARKER else symbols
        for idx, (sym, piece) in enumerate(zip(content, pieces)):
            if model.subword_vocab.get(piece, 0) < threshold and sym in model.reverse:
                symbols[idx : idx + 1] = list(model.reverse[sym])
                break
        else:
            return tuple(symbols)


def apply_bpe(
    model: BpeModel,
    token: str,
    vocab_threshold: int = 0,
    protected=default_protected,
) -> list[str]:
    """Segment one token into emitted subwords.

    Merges are applied in learned order: while any adjacent pair has a rank,
    the lowest-ranked one is merged wherever it occurs, left to right.  Each
    adjacency keeps its rank, and a merge re-ranks only the two beside the
    merged symbol.  Subwords whose learning-corpus count falls below
    vocab_threshold are split back into their merge parts until every piece
    meets the threshold or is a single symbol.  Tokens for which
    `protected` is true pass through unsegmented.
    """
    if not token:
        raise ConfigError("cannot segment an empty token")
    if vocab_threshold < 0:
        raise ConfigError("vocab_threshold must be >= 0")
    if protected(token):
        return [token]

    cache = model._cache
    key = (token, vocab_threshold)
    hit = cache.get(key)
    if hit is not None:
        return list(hit)

    word = list(token) + [EOW_MARKER]
    ranks = model.ranks
    unranked = len(model.merges)
    # rank[k] is the rank of the pair (word[k], word[k + 1]), unranked if it has none
    rank = [ranks.get(pair, unranked) for pair in zip(word, word[1:])]
    while rank:
        best = min(rank)
        if best == unranked:
            break
        # a merged symbol's new pairs cannot rank `best` (it is longer than
        # either part), so the first `best` left is the next one to merge
        while best in rank:
            k = rank.index(best)
            word[k : k + 2] = [word[k] + word[k + 1]]
            del rank[k]
            if k:
                rank[k - 1] = ranks.get((word[k - 1], word[k]), unranked)
            if k < len(rank):
                rank[k] = ranks.get((word[k], word[k + 1]), unranked)

    if vocab_threshold > 0:
        word = _enforce_threshold(model, word, vocab_threshold)
    pieces = _emit(word)

    cache[key] = tuple(pieces)
    return pieces


def apply_bpe_line(
    model: BpeModel, tokens: Sequence[str], vocab_threshold: int = 0, protected=default_protected
) -> list[str]:
    """Segment every token of a line, preserving order; `protected` as in apply_bpe."""
    out: list[str] = []
    for tok in tokens:
        out.extend(apply_bpe(model, tok, vocab_threshold, protected))
    return out


def revert_bpe(subwords: Sequence[str]) -> list[str]:
    """Undo segmentation: glue subwords at join markers back into tokens."""
    tokens: list[str] = []
    current: list[str] = []
    for sw in subwords:
        if sw.endswith(JOIN_MARKER) and len(sw) > len(JOIN_MARKER):
            current.append(sw[: -len(JOIN_MARKER)])
        else:
            current.append(sw)
            tokens.append("".join(current))
            current = []
    if current:
        raise MalformedSegmentationError(
            "dangling join marker at sequence end: %r" % (subwords[-1],)
        )
    return tokens


def word_frequencies(lines: Iterable[Sequence[str]], protected=default_protected) -> Counter:
    """Count word frequencies over tokenized lines, skipping protected tokens.

    Keys keep the order of their first occurrence."""
    freqs = Counter(chain.from_iterable(lines))
    for tok in [tok for tok in freqs if protected(tok)]:
        del freqs[tok]
    return freqs


# ---------------------------------------------------------------------------
# Model file: one header line (version, the two fixed markers, section sizes),
# then merge pairs in learned order, then "subword<TAB>count" vocabulary entries.
# ---------------------------------------------------------------------------

_FORMAT_VERSION = "bpe-v1"


def save_bpe_model(model: BpeModel, path):
    lines = [
        "%s\teow=%s\tjoin=%s\tmerges=%d\tvocab=%d"
        % (_FORMAT_VERSION, EOW_MARKER, JOIN_MARKER, len(model.merges), len(model.subword_vocab))
    ]
    lines.extend("%s %s" % pair for pair in model.merges)
    lines.extend("%s\t%d" % (sw, c) for sw, c in sorted(model.subword_vocab.items()))
    with open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_bpe_model(path) -> BpeModel:
    """A file that does not follow the model format, or names markers other
    than EOW_MARKER and JOIN_MARKER, raises MalformedSegmentationError."""
    lines = read_text(path, MalformedSegmentationError).splitlines()
    if not lines:
        raise MalformedSegmentationError("empty model file: %s" % path)
    header = lines[0].split("\t")
    if header[0] != _FORMAT_VERSION or len(header) != 5:
        raise MalformedSegmentationError("unrecognized model header in %s" % path)
    try:
        fields = dict(item.split("=", 1) for item in header[1:])
        if (fields["eow"], fields["join"]) != (EOW_MARKER, JOIN_MARKER):
            raise MalformedSegmentationError(
                "model file %s has markers eow=%s join=%s; only eow=%s join=%s are supported"
                % (path, fields["eow"], fields["join"], EOW_MARKER, JOIN_MARKER))
        n_merges, n_vocab = int(fields["merges"]), int(fields["vocab"])
        if min(n_merges, n_vocab) < 0 or len(lines) != 1 + n_merges + n_vocab:
            raise ValueError("header does not describe the file")
        merges = [tuple(line.split(" ")) for line in lines[1 : 1 + n_merges]]
        for lineno, pair in enumerate(merges, start=2):
            # an empty symbol would make threshold splitting split forever
            if len(pair) != 2 or not all(pair):
                raise MalformedSegmentationError(
                    "malformed model file %s:%d: a merge is two non-empty symbols separated by one space"
                    % (path, lineno))
        vocab = {}
        for line in lines[1 + n_merges :]:
            sw, count = line.rsplit("\t", 1)
            vocab[sw] = int(count)
    except (ValueError, KeyError) as exc:
        raise MalformedSegmentationError("malformed model file %s: %s" % (path, exc)) from None
    return BpeModel(merges=tuple(merges), subword_vocab=vocab)
