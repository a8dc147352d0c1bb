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
from .errors import ConfigError, DataError

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


def _heap_entry(count: int, pair: tuple[str, str]):
    """learn_bpe's heap entry for a pair: the smallest entry is the most
    frequent pair, ties going to content merges before marker merges, then
    to plain string order."""
    left, right = pair
    return (-count, EOW_MARKER in left, EOW_MARKER in right, left, right)


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
    (left, right) with marker-bearing symbols ordered last.  A word containing
    whitespace, EOW_MARKER or JOIN_MARKER raises ConfigError: its merges and
    emitted forms could not be told apart from those the markers make.

    Pair counts are kept live (Sennrich et al. 2016), with an index from each
    pair to the words that have held it.  Merging the listed words left to
    right leaves no (left, right) adjacency, runs like "a a a" included, so
    the picked pair's count is deleted when it is picked.  Each merge at j
    then moves its two neighbour pairs onto the merged symbol: (old[j-1],
    left) becomes (old[j-1], merged), or (merged, merged) after a merge that
    ends at j-1, and (right, old[j+2]) becomes (merged, old[j+2]) unless a
    merge starts at j+2.  A moved pair equal to the picked one is already
    gone, and a listed word that no longer holds the picked pair is skipped.

    The best pair comes from a lazy max-heap.  A merge only removes pairs or
    creates ones holding the merged symbol, so only those get a fresh entry;
    any other entry can only over-estimate its pair's count.  The top entry
    is taken when its count is live, re-filed at the live count when it is
    not, and dropped when its pair is gone.
    """
    if num_merges < 0:
        raise ConfigError("num_merges must be >= 0")
    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    stats: dict[tuple[str, str], int] = {}
    index: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, (word, count) in enumerate(word_frequencies.items()):
        if count <= 0:
            raise ConfigError("word frequency for %r must be > 0" % word)
        if "".join(word.split()) != word or EOW_MARKER in word or JOIN_MARKER in word:
            raise ConfigError("cannot learn from a word containing whitespace, %s or %s: %r"
                              % (EOW_MARKER, JOIN_MARKER, word))
        symbols = (*word, EOW_MARKER)
        words.append(symbols)
        freqs.append(count)
        for pair in zip(symbols, symbols[1:]):
            stats[pair] = stats.get(pair, 0) + count
            index[pair].add(i)

    # a pair's highest-count entry never counts less than the pair's live count (see docstring)
    heap = [_heap_entry(count, pair) for pair, count in stats.items()]
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
            heapq.heapreplace(heap, _heap_entry(live, best))
            continue
        merges.append(best)
        del stats[best]
        merged = left + right
        grown = set()
        for i in index.pop(best):
            old, count = words[i], freqs[i]
            # merge left to right; the merge before j ended at `end`
            new, end, j, last = (), 0, 0, len(old) - 1
            while left in old[j:last]:
                j = old.index(left, j, last)
                if old[j + 1] != right:
                    j += 1
                    continue
                if j:
                    gone, pair = (old[j - 1], left), (merged if j == end else old[j - 1], merged)
                    if gone != best:
                        remaining = stats.pop(gone) - count
                        if remaining:
                            stats[gone] = remaining
                    stats[pair] = stats.get(pair, 0) + count
                    index[pair].add(i)
                    grown.add(pair)
                # a merge that starts at j + 2 moves the pair after this one as its left neighbour
                if j + 2 <= last and old[j + 2 : j + 4] != best:
                    gone, pair = (right, old[j + 2]), (merged, old[j + 2])
                    if gone != best:
                        remaining = stats.pop(gone) - count
                        if remaining:
                            stats[gone] = remaining
                    stats[pair] = stats.get(pair, 0) + count
                    index[pair].add(i)
                    grown.add(pair)
                new += (*old[end:j], merged)
                j = end = j + 2
            if end:
                words[i] = new + old[end:]
        for pair in grown:
            heapq.heappush(heap, _heap_entry(stats[pair], pair))

    # free the pair tables before BpeModel builds its ranks and reverse tables,
    # so that building them does not raise the peak memory of learning
    del stats, index, heap
    vocab: dict[str, int] = {}
    for word, count in zip(words, freqs):
        for piece in _emit(word):
            vocab[piece] = vocab.get(piece, 0) + count
    return BpeModel(merges=tuple(merges), subword_vocab=vocab)


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
        raise DataError(
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
    than EOW_MARKER and JOIN_MARKER, raises DataError."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError("empty model file: %s" % path)
    header = lines[0].split("\t")
    if header[0] != _FORMAT_VERSION or len(header) != 5:
        raise DataError("unrecognized model header in %s" % path)
    try:
        fields = dict(item.split("=", 1) for item in header[1:])
        if (fields["eow"], fields["join"]) != (EOW_MARKER, JOIN_MARKER):
            raise DataError(
                "model file %s has markers eow=%s join=%s; only eow=%s join=%s are supported"
                % (path, fields["eow"], fields["join"], EOW_MARKER, JOIN_MARKER))
        n_merges, n_vocab = int(fields["merges"]), int(fields["vocab"])
        if min(n_merges, n_vocab) < 0 or len(lines) != 1 + n_merges + n_vocab:
            raise ValueError("header does not describe the file")
        merges = [tuple(line.split(" ")) for line in lines[1 : 1 + n_merges]]
        for lineno, pair in enumerate(merges, start=2):
            # an empty symbol would make threshold splitting split forever
            if len(pair) != 2 or not all(pair):
                raise DataError(
                    "malformed model file %s:%d: a merge is two non-empty symbols separated by one space"
                    % (path, lineno))
        vocab = {}
        for line in lines[1 + n_merges :]:
            sw, count = line.rsplit("\t", 1)
            vocab[sw] = int(count)
    except (ValueError, KeyError) as exc:
        raise DataError("malformed model file %s: %s" % (path, exc)) from None
    return BpeModel(merges=tuple(merges), subword_vocab=vocab)
