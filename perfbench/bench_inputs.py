"""Seeded generators for the prep-analyze workload's inputs.

Everything here is a function of the workload seed, so the same seed gives
byte-identical input files.
"""

from __future__ import annotations

import numpy as np

BREAK = "_BREAK_"
LETTERS = "etaoinshrdlcumwfgypbvkjxqz"


def word_inventory(rng, size: int) -> list[str]:
    """Distinct lowercase words, 3-12 letters, with skewed letter frequencies
    so that BPE finds frequent pairs."""
    weights = 1.0 / np.arange(1, len(LETTERS) + 1) ** 0.8
    weights /= weights.sum()
    alphabet = np.array(list(LETTERS))
    words: dict[str, None] = {}
    while len(words) < size:
        lengths = rng.integers(3, 13, size=size)
        letters = alphabet[rng.choice(len(LETTERS), size=int(lengths.sum()), p=weights)]
        ends = np.cumsum(lengths)
        for start, end in zip(ends - lengths, ends):
            words["".join(letters[start:end])] = None
            if len(words) == size:
                break
    return list(words)


def zipf_weights(size: int, exponent: float = 1.1) -> np.ndarray:
    p = np.arange(1, size + 1, dtype=np.float64) ** -exponent
    return p / p.sum()


def zipf_lines(rng, types: list[str], num_tokens: int, exponent: float = 1.1) -> list[list[str]]:
    """Lines of 8-20 tokens; every type occurs at least once, the rest of the
    tokens are Zipf-distributed over the types."""
    p = zipf_weights(len(types), exponent)
    draws = list(types) + [types[i] for i in rng.choice(len(types), size=num_tokens - len(types), p=p)]
    order = rng.permutation(len(draws))
    tokens = [draws[i] for i in order]
    return _split_lines(rng, tokens)


def zipf_units(rng, types: list[str], num_lines: int) -> list[list[str]]:
    """Exactly num_lines lines of 5-15 Zipf-distributed tokens."""
    p = zipf_weights(len(types))
    lengths = rng.integers(5, 16, size=num_lines)
    draws = rng.choice(len(types), size=int(lengths.sum()), p=p)
    ends = np.cumsum(lengths)
    return [[types[i] for i in draws[start:end]] for start, end in zip(ends - lengths, ends)]


def uniform_lines(rng, types: list[str], num_tokens: int) -> list[list[str]]:
    """Lines of uniformly drawn tokens: with a large inventory most are distinct."""
    return _split_lines(rng, [types[i] for i in rng.integers(0, len(types), size=num_tokens)])


def _split_lines(rng, tokens: list[str]) -> list[list[str]]:
    lines, i = [], 0
    while i < len(tokens):
        n = int(rng.integers(8, 21))
        lines.append(tokens[i : i + n])
        i += n
    return lines


def doc_ids(rng, num_units: int) -> list[str]:
    """Document ids for num_units aligned units, documents of 2-12 units."""
    ids = []
    doc = 0
    while len(ids) < num_units:
        ids.extend(["doc-%05d" % doc] * int(rng.integers(2, 13)))
        doc += 1
    return ids[:num_units]


def corrupt(rng, lines: list[list[str]], vocabulary: list[str], rate: float = 0.15) -> list[list[str]]:
    """Seeded corruption of a reference: substitute, drop or duplicate tokens."""
    out = []
    for line in lines:
        new = []
        for tok in line:
            r = rng.random()
            if r < rate / 3:
                new.append(vocabulary[int(rng.integers(len(vocabulary)))])
            elif r < 2 * rate / 3:
                continue
            elif r < rate:
                new.extend((tok, tok))
            else:
                new.append(tok)
        out.append(new or [line[0]])
    return out


def attention_records(rng, num_records: int, vocabulary: list[str]) -> list[dict]:
    """Two-sided (2+2) attention exports: previous and current segment joined by
    a break token on both sides, 8-30 target x 5-30 source tokens, Dirichlet rows."""
    records = []
    for index in range(num_records):
        src_len = int(rng.integers(5, 31))
        trg_len = int(rng.integers(8, 31))
        src_break = int(rng.integers(1, src_len - 1))
        trg_break = int(rng.integers(1, trg_len - 1))
        source = [vocabulary[int(i)] for i in rng.integers(0, len(vocabulary), size=src_len)]
        target = [vocabulary[int(i)] for i in rng.integers(0, len(vocabulary), size=trg_len)]
        source[src_break] = BREAK
        target[trg_break] = BREAK
        weights = rng.dirichlet(np.full(src_len, 0.5), size=trg_len)
        weights /= weights.sum(axis=1, keepdims=True)
        records.append(
            {
                "index": index,
                "doc_id": "doc-%05d" % (index // 8),
                "index_in_doc": index % 8,
                "source_tokens": source,
                "target_tokens": target,
                "weights": weights.tolist(),
                "source_focus_start": src_break + 1,
                "break_token": BREAK,
            }
        )
    return records
