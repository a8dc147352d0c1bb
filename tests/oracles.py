"""Brute-force reference implementations used as independent oracles.

These deliberately take the most literal counting route (explicit loops,
no shared helpers with the package) so that agreement with the package
implementations is meaningful.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from ctxnmt.corpus import ExtendedExample, Marking, _check_document_order, mark_context
from ctxnmt.decode import BeamConfig, DecodeResult
from ctxnmt.errors import NumericError
from ctxnmt.model import BOS_ID, EOS_ID, PAD_ID, DecoderState, ModelParams, decode_step, encode, init_decoder_state
from ctxnmt.subword import EOW_MARKER, JOIN_MARKER


def _extend_side(doc_units, i, window, config):
    """Build one side of an extended example; returns (tokens, focus_start)."""
    lo = max(0, i - window)
    out = []
    for ctx in doc_units[lo:i]:
        out.extend(mark_context(ctx, config.marking, config.context_prefix))
        if config.marking is Marking.BREAK:
            out.append(config.break_token)
    focus_start = len(out)
    out.extend(doc_units[i])
    return out, focus_start


def oracle_extend_corpus(units, config):
    """Reference for corpus.extend_corpus: each unit's window rebuilt from
    its document's units, one unit at a time."""
    _check_document_order(units)
    examples = []
    doc_src = []
    doc_trg = []
    prev_doc = None
    for unit in units:
        if unit.doc_id != prev_doc:
            doc_src, doc_trg = [], []
            prev_doc = unit.doc_id
        doc_src.append(unit.source_tokens)
        doc_trg.append(unit.target_tokens)
        i = unit.index_in_doc
        src, src_start = _extend_side(doc_src, i, config.source_window, config)
        trg, trg_start = _extend_side(doc_trg, i, config.target_window, config)
        examples.append(
            ExtendedExample(
                source_tokens=tuple(src),
                target_tokens=tuple(trg),
                source_focus_start=src_start,
                target_focus_start=trg_start,
                origin=(unit.doc_id, unit.index_in_doc),
            )
        )
    return examples


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


def _pair_sort_key(pair):
    left, right = pair
    return (EOW_MARKER in left, EOW_MARKER in right, left, right)


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


def _emit(symbols):
    body = [s for s in symbols[:-1]]
    if symbols and symbols[-1] != EOW_MARKER:
        body.append(symbols[-1][: -len(EOW_MARKER)])
    return [s + JOIN_MARKER for s in body[:-1]] + body[-1:]


def oracle_learn_bpe(word_frequencies, num_merges):
    """BPE learning that recounts every adjacent pair over the whole
    vocabulary before each merge; returns `.merges` and `.subword_vocab`."""
    vocab = {}
    for word, count in word_frequencies.items():
        vocab[tuple(word) + (EOW_MARKER,)] = count

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
            key=_pair_sort_key,
        )
        merges.append(best)
        vocab = {_merge_word(word, best): count for word, count in vocab.items()}

    counts = Counter()
    for word, count in vocab.items():
        for piece in _emit(word):
            counts[piece] += count
    return SimpleNamespace(merges=tuple(merges), subword_vocab=dict(counts))


def oracle_apply_bpe(model, token, vocab_threshold):
    """Segmentation that rebuilds the word's whole pair set after every
    merge: merge the lowest-ranked pair present (rank = first position in
    model.merges) until none is left, then split, left to right and starting
    over after each split, the first symbol whose emitted form is rarer than
    vocab_threshold into the first merge that spells it."""
    word = tuple(token) + (EOW_MARKER,)
    while True:
        present = [pair for pair in set(zip(word, word[1:])) if pair in model.merges]
        if not present:
            break
        word = _merge_word(word, min(present, key=model.merges.index))
    if vocab_threshold > 0:
        split = True
        while split:
            split = False
            pieces = _emit(word)
            for idx, piece in enumerate(pieces):
                parts = [pair for pair in model.merges if pair[0] + pair[1] == word[idx]]
                if model.subword_vocab.get(piece, 0) < vocab_threshold and parts:
                    word = word[:idx] + parts[0] + word[idx + 1 :]
                    split = True
                    break
    return _emit(word)


def oracle_word_frequencies(lines, protected):
    """Per-token counts of the unprotected tokens, keyed in order of first
    occurrence."""
    freqs = {}
    for tokens in lines:
        for tok in tokens:
            if not protected(tok):
                freqs[tok] = freqs.get(tok, 0) + 1
    return freqs


# LSTM recurrences: one loop per direction, and np.where keeps a padded row's
# state where model.py zeroes it.  The oracle_* stand-ins replace model's
# _encode/_run_decoder pairs, so backward() can run on them.


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def oracle_lstm_step(zx, Wh, h_prev, c_prev):
    """One LSTM step for a batch of states (B, H); zx = x @ Wx + b."""
    hdim = h_prev.shape[-1]
    z = zx + h_prev @ Wh
    gates = _sigmoid(z)
    i, f, o = gates[..., :hdim], gates[..., hdim : 2 * hdim], gates[..., 3 * hdim :]
    g = np.tanh(z[..., 2 * hdim : 3 * hdim])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (h_prev, c_prev, i, f, g, o, tc)


def _lstm_step_backward(Wh, cache, dh, dc):
    h_prev, c_prev, i, f, g, o, tc = cache
    dc_total = dc + dh * o * (1.0 - tc * tc)
    dz = np.concatenate(
        [dc_total * g * i * (1 - i), dc_total * c_prev * f * (1 - f), dc_total * i * (1 - g * g), dh * tc * o * (1 - o)],
        axis=-1,
    )
    return dz, dz @ Wh.T, dc_total * f


def _run_cell(t, cell, X, mask, h, c, reverse=False):
    """One direction over time-major X (T, B, E); where mask (T, B, 1) is
    False a row keeps its state and outputs zero."""
    Wh = t[cell + "_Wh"]
    ZX = (X.reshape(-1, X.shape[-1]) @ t[cell + "_Wx"] + t[cell + "_b"]).reshape(X.shape[:2] + (-1,))
    out = np.empty(X.shape[:2] + h.shape[-1:], dtype=h.dtype)
    steps = [None] * len(X)
    order = range(len(X) - 1, -1, -1) if reverse else range(len(X))
    for s in order:
        h_new, c_new, steps[s] = oracle_lstm_step(ZX[s], Wh, h, c)
        out[s] = h_new * mask[s]
        h = np.where(mask[s], h_new, h)
        c = np.where(mask[s], c_new, c)
    return out, (cell, X, mask, order, steps)


def _run_cell_backward(t, cache, d_out, grads):
    """Returns the gradients of the inputs (T, B, E) and of the initial h."""
    cell, X, mask, order, steps = cache
    Wh = t[cell + "_Wh"]
    dZ = np.empty(X.shape[:2] + Wh.shape[1:], dtype=X.dtype)
    dh = np.zeros_like(steps[0][0])
    dc = np.zeros_like(dh)
    for s in reversed(order):
        m = mask[s]
        dZ[s], dh_prev, dc_prev = _lstm_step_backward(Wh, steps[s], (dh + d_out[s]) * m, dc * m)
        dh = np.where(m, dh_prev, dh)
        dc = np.where(m, dc_prev, dc)
    h_prev = np.stack([step[0] for step in steps])
    flat_dZ = dZ.reshape(-1, dZ.shape[-1])
    grads[cell + "_Wx"] += X.reshape(-1, X.shape[-1]).T @ flat_dZ
    grads[cell + "_Wh"] += h_prev.reshape(-1, h_prev.shape[-1]).T @ flat_dZ
    grads[cell + "_b"] += flat_dZ.sum(axis=0)
    return dZ @ t[cell + "_Wx"].T, dh


def oracle_encode(params, src_ids, src_mask):
    """Stand-in for model._encode: each direction is its own loop over time."""
    t = params.tensors
    X = t["src_embed"][src_ids.T]
    mask = src_mask.T[..., None]
    zero = np.zeros((len(src_ids), params.hyper.hidden_dim), dtype=params.dtype)
    fwd, fwd_cache = _run_cell(t, "enc_fwd", X, mask, zero, zero)
    bwd, bwd_cache = _run_cell(t, "enc_bwd", X, mask, zero, zero, reverse=True)
    states = np.ascontiguousarray(np.concatenate([fwd, bwd], axis=-1).transpose(1, 0, 2))
    return states, (src_ids, src_mask, fwd_cache, bwd_cache)


def oracle_encode_backward(params, cache, d_states, grads):
    """Stand-in for model._encode_backward."""
    t = params.tensors
    src_ids, src_mask, fwd_cache, bwd_cache = cache
    hdim = params.hyper.hidden_dim
    d_out = d_states.transpose(1, 0, 2)
    dx_fwd, _ = _run_cell_backward(t, fwd_cache, d_out[..., :hdim], grads)
    dx_bwd, _ = _run_cell_backward(t, bwd_cache, d_out[..., hdim:], grads)
    mask = src_mask.T
    np.add.at(grads["src_embed"], src_ids.T[mask], (dx_fwd + dx_bwd)[mask])


def oracle_run_decoder(params, dec_in, trg_mask, s0, c0):
    """Stand-in for model._run_decoder."""
    t = params.tensors
    states, cache = _run_cell(t, "dec", t["trg_embed"][dec_in.T], trg_mask.T[..., None], s0, c0)
    return states.transpose(1, 0, 2), (dec_in, trg_mask, cache)


def oracle_run_decoder_backward(params, cache, d_states, grads):
    """Stand-in for model._run_decoder_backward."""
    dec_in, trg_mask, lstm_cache = cache
    d_in, ds0 = _run_cell_backward(params.tensors, lstm_cache, d_states.transpose(1, 0, 2), grads)
    mask = trg_mask.T
    np.add.at(grads["trg_embed"], dec_in.T[mask], d_in[mask])
    return ds0


# Beam search with one Hypothesis object per candidate: each copies its token
# list and attention-row list, and every entry of the pool is re-scored at
# every sort.  The members step one at a time, each with its own state.  The
# package steps one stacked model and keeps back-pointer nodes, made only for
# the survivors of each cut, instead; the outputs must be the same bits.


def _ensemble_step(models, states, prev_ids):
    """Average member probabilities over K hypotheses; returns (new_states,
    log_probs (K, V), attention (K, S)) with reserved ids at -inf."""
    new_states, probs, attn = [], 0.0, 0.0
    for params, state in zip(models, states):
        state, log_p, a = decode_step(params, state, prev_ids)
        new_states.append(state)
        probs = probs + np.exp(log_p)
        attn = attn + a
    probs /= len(models)
    attn /= len(models)
    if not np.isfinite(probs).all():
        raise NumericError("non-finite output probabilities while decoding")
    log_probs = np.log(np.maximum(probs, 1e-300))
    log_probs[:, (PAD_ID, BOS_ID)] = -np.inf
    return new_states, log_probs, attn


@dataclass
class Hypothesis:
    """One beam entry: tokens so far with accumulated log-probability, its
    row in the batched decoder state, and the running sum of its attention."""

    token_ids: list[int]
    log_prob: float
    attention_rows: list[np.ndarray]
    finished: bool
    row: int
    coverage: np.ndarray

    def score(self, config: BeamConfig) -> float:
        length = max(1, len(self.token_ids))
        value = self.log_prob / (length ** config.length_norm_alpha)
        if config.coverage_beta > 0.0 and self.attention_rows:
            value += config.coverage_beta * np.sum(np.log(np.minimum(self.coverage, 1.0)))
        return value


def oracle_beam_search(params_or_ensemble, source_ids, config: BeamConfig) -> Hypothesis:
    """Reference for decode.beam_search, returning the best Hypothesis."""
    if isinstance(params_or_ensemble, ModelParams):
        params_or_ensemble = [params_or_ensemble]
    models = [m.astype(np.float64) for m in params_or_ensemble]
    states = [init_decoder_state(m, encode(m, source_ids)) for m in models]
    start = Hypothesis(
        token_ids=[], log_prob=0.0, attention_rows=[], finished=False, row=0, coverage=np.zeros(len(source_ids)),
    )
    beams = [start]

    for _ in range(min(config.max_len(len(source_ids)), *(m.hyper.max_target_len for m in models))):
        live = [h for h in beams if not h.finished]
        if not live:
            break
        rows = [h.row for h in live]
        states = [DecoderState(st.h[rows], st.c[rows], st.encoder_states, st.enc_proj) for st in states]
        prev_ids = np.array([h.token_ids[-1] if h.token_ids else BOS_ID for h in live])
        states, log_probs, attn = _ensemble_step(models, states, prev_ids)
        top = np.argsort(-log_probs, axis=1, kind="stable")[:, : config.beam_size]
        pool: list[Hypothesis] = [h for h in beams if h.finished]
        for row, hyp in enumerate(live):
            # siblings share these; no hypothesis mutates its lists or arrays
            attention_rows = hyp.attention_rows + [attn[row]]
            coverage = hyp.coverage + attn[row]
            for token_id, step_log_prob in zip(top[row].tolist(), log_probs[row, top[row]].tolist()):
                log_prob = hyp.log_prob + step_log_prob
                if token_id == EOS_ID:
                    pool.append(replace(hyp, log_prob=log_prob, finished=True))
                else:
                    pool.append(
                        Hypothesis(
                            token_ids=hyp.token_ids + [token_id],
                            log_prob=log_prob,
                            attention_rows=attention_rows,
                            finished=False,
                            row=row,
                            coverage=coverage,
                        )
                    )
        pool.sort(key=lambda h: -h.score(config))
        beams = pool[: config.beam_size]

    finished = [h for h in beams if h.finished] or beams
    return max(finished, key=lambda h: h.score(config))


def oracle_beam_decode(params_or_ensemble, source_ids, config: BeamConfig) -> DecodeResult:
    """Reference for decode.beam_decode: the best Hypothesis's rows stacked."""
    hyp = oracle_beam_search(params_or_ensemble, source_ids, config)
    return DecodeResult(
        target_ids=list(hyp.token_ids),
        weights=np.stack(hyp.attention_rows) if hyp.attention_rows else np.zeros((0, len(source_ids))),
        truncated=not hyp.finished,
        log_prob=hyp.log_prob,
    )
