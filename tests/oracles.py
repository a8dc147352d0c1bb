"""Brute-force reference implementations used as independent oracles.

These deliberately take the most literal counting route (explicit loops,
no shared helpers with the package) so that agreement with the package
implementations is meaningful.
"""

import math
from collections import Counter
from types import SimpleNamespace


def _ngrams_list(seq, n):
    out = []
    for i in range(len(seq)):
        if i + n <= len(seq):
            out.append(tuple(seq[i : i + n]))
    return out


def oracle_bleu_counts(hypotheses, references):
    """(clipped matches, hypothesis n-grams) for n = 1..4 via literal counting."""
    counts = []
    for n in (1, 2, 3, 4):
        total = 0
        match = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_ngrams = _ngrams_list(hyp, n)
            ref_ngrams = _ngrams_list(ref, n)
            total += len(hyp_ngrams)
            for gram in set(hyp_ngrams):
                match += min(hyp_ngrams.count(gram), ref_ngrams.count(gram))
        counts.append((match, total))
    return counts


def oracle_bleu(hypotheses, references):
    """Corpus BLEU via literal clipped counting; returns the score in [0, 1]."""
    hyp_len = 0
    ref_len = 0
    precisions = [match / total for match, total in oracle_bleu_counts(hypotheses, references) if total > 0]
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
    if hyp_len == 0:
        return 0.0
    if any(p == 0.0 for p in precisions) or not precisions:
        return 0.0
    product = 1.0
    for p in precisions:
        product *= p
    geo = product ** (1.0 / len(precisions))
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * geo


def oracle_chrf(hypotheses, references, beta=3.0, max_n=6):
    """chrF over space-joined character streams; returns (score, P, R)."""
    hyp_tot = {}
    ref_tot = {}
    match_tot = {}
    for n in range(1, max_n + 1):
        hyp_tot[n] = 0
        ref_tot[n] = 0
        match_tot[n] = 0
    for hyp, ref in zip(hypotheses, references):
        hs = " ".join(hyp)
        rs = " ".join(ref)
        for n in range(1, max_n + 1):
            hyp_ngrams = _ngrams_list(hs, n)
            ref_ngrams = _ngrams_list(rs, n)
            hyp_tot[n] += len(hyp_ngrams)
            ref_tot[n] += len(ref_ngrams)
            remaining = list(ref_ngrams)
            for gram in hyp_ngrams:
                if gram in remaining:
                    remaining.remove(gram)
                    match_tot[n] += 1
    p_terms = [match_tot[n] / hyp_tot[n] for n in range(1, max_n + 1) if hyp_tot[n] > 0]
    r_terms = [match_tot[n] / ref_tot[n] for n in range(1, max_n + 1) if ref_tot[n] > 0]
    precision = sum(p_terms) / len(p_terms) if p_terms else 0.0
    recall = sum(r_terms) / len(r_terms) if r_terms else 0.0
    if precision + recall == 0.0:
        return 0.0, precision, recall
    score = (1 + beta * beta) * precision * recall / (beta * beta * precision + recall)
    return score, precision, recall


def oracle_chi_square(a, b, c, d):
    """Pearson chi-square via the expected-count formula."""
    n = a + b + c + d
    observed = [[a, b], [c, d]]
    row = [a + b, c + d]
    col = [a + c, b + d]
    stat = 0.0
    for i in (0, 1):
        for j in (0, 1):
            expected = row[i] * col[j] / n
            stat += (observed[i][j] - expected) ** 2 / expected
    return stat


def oracle_partition(export, kind):
    """Classify every attention cell one at a time into the (position,
    weight) lists `.external` and `.internal`.

    Source break columns belong to neither list, for both kinds.  "2+1":
    internal = positions from the source focus on, external = the rest.
    "2+2": segments are delimited by break tokens and aligned by index;
    output break tokens are skipped.  Positions restart after every output
    break.
    """
    if kind not in ("2+1", "2+2"):
        raise ValueError("unknown model kind %r" % kind)
    brk = export.break_token
    src_segment = []
    seg = 0
    for token in export.source_tokens:
        if token == brk:
            seg += 1
            src_segment.append(None)
        else:
            src_segment.append(seg)

    out = []
    target_segment = 0
    position = 0
    for t, token in enumerate(export.target_tokens):
        if token == brk and kind == "2+2":
            target_segment += 1
            position = 0
            continue
        position += 1
        external = []
        internal = []
        for s in range(len(export.source_tokens)):
            w = float(export.weights[t][s])
            if src_segment[s] is None:
                continue
            if kind == "2+1" and s >= export.source_focus_start:
                internal.append((s, w))
            elif kind == "2+2" and src_segment[s] == target_segment:
                internal.append((s, w))
            else:
                external.append((s, w))
        out.append(SimpleNamespace(word=token.lower(), position=position, external=external, internal=internal))
        if token == brk:
            position = 0
    return out


def oracle_word_mass_stats(partitions, min_freq=5):
    """Naive per-word aggregation of external/internal attention mass."""
    by_word = {}
    for p in partitions:
        by_word.setdefault(p.word, []).append(p)
    rows = {}
    for word, occs in by_word.items():
        if len(occs) < min_freq:
            continue
        ext = sum(sum(w for _, w in o.external) for o in occs) / len(occs)
        internal = sum(sum(w for _, w in o.internal) for o in occs) / len(occs)
        pos = sum(o.position for o in occs) / len(occs)
        prop = 100.0 * ext / (ext + internal) if ext + internal > 0 else 0.0
        rows[word] = (len(occs), ext, internal, prop, pos)
    return rows


def oracle_word_peak_stats(partitions, min_freq=5):
    by_word = {}
    for p in partitions:
        by_word.setdefault(p.word, []).append(p)
    rows = {}
    for word, occs in by_word.items():
        if len(occs) < min_freq:
            continue
        ext_peaks = []
        int_peaks = []
        for o in occs:
            ext_peaks.append(max([w for _, w in o.external], default=0.0))
            int_peaks.append(max([w for _, w in o.internal], default=0.0))
        ext = sum(ext_peaks) / len(occs)
        internal = sum(int_peaks) / len(occs)
        pos = sum(o.position for o in occs) / len(occs)
        prop = 100.0 * ext / (ext + internal) if ext + internal > 0 else 0.0
        rows[word] = (len(occs), ext, internal, prop, pos)
    return rows


def oracle_majority_peak_stats(partitions, min_cases=5, use_mass=False):
    by_word = {}
    for p in partitions:
        by_word.setdefault(p.word, []).append(p)
    rows = {}
    for word, occs in by_word.items():
        wins = 0
        for o in occs:
            if use_mass:
                ext = sum(w for _, w in o.external)
                internal = sum(w for _, w in o.internal)
            else:
                ext = max([w for _, w in o.external], default=0.0)
                internal = max([w for _, w in o.internal], default=0.0)
            if ext > internal:
                wins += 1
        if wins >= min_cases:
            rows[word] = (wins, len(occs), wins / len(occs))
    return rows


def oracle_corpus_external_proportion(partitions):
    ext = 0.0
    total = 0.0
    for p in partitions:
        e = sum(w for _, w in p.external)
        i = sum(w for _, w in p.internal)
        ext += e
        total += e + i
    return ext / total if total > 0 else 0.0


def _pair_sort_key(pair, eow):
    left, right = pair
    return (eow in left, eow in right, left, right)


def _merge_word(word, pair):
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and (word[i], word[i + 1]) == pair:
            out.append(word[i] + word[i + 1])
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def _emit(symbols, eow, join):
    body = [s for s in symbols[:-1]]
    if symbols and symbols[-1] != eow:
        body.append(symbols[-1][: -len(eow)])
    return [s + join for s in body[:-1]] + body[-1:]


def oracle_learn_bpe(word_frequencies, num_merges, eow_marker, join_marker):
    """BPE learning that recounts every adjacent pair over the whole
    vocabulary before each merge; returns `.merges` and `.subword_vocab`."""
    vocab = {}
    for word, count in word_frequencies.items():
        vocab[tuple(word) + (eow_marker,)] = count

    merges = []
    for _ in range(num_merges):
        stats = Counter()
        for word, count in vocab.items():
            for pair in zip(word, word[1:]):
                stats[pair] += count
        if not stats:
            break
        best_count = max(stats.values())
        best = min(
            (p for p, c in stats.items() if c == best_count),
            key=lambda p: _pair_sort_key(p, eow_marker),
        )
        merges.append(best)
        vocab = {_merge_word(word, best): count for word, count in vocab.items()}

    counts = Counter()
    for word, count in vocab.items():
        for piece in _emit(word, eow_marker, join_marker):
            counts[piece] += count
    return SimpleNamespace(merges=tuple(merges), subword_vocab=dict(counts))
