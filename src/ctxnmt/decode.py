"""Decoding: length-normalized beam search with attention capture, optional
coverage penalty, savepoint ensembling, and last-segment extraction for
two-sided context models.  Greedy decoding is beam search with beam size 1
and alpha = beta = 0.

All live hypotheses of a sentence advance together as the rows of one
batched decoder state.  An ensemble is one stacked model (as_ensemble): its
members' weights carry a leading member axis, so one encode and one
decode_step per search step serve every member, and members must share one
shape.  The stack is read-only and carries its gate-scaled LSTM weights
(model.ScaledWeights), made once; a step works on its own arrays in place,
with the operations and their order unchanged, so no bit of a search
depends on whether the weights were prepared.  Ensembles average the
per-step output probability distributions of their members before taking
the log; attention weights are averaged the same way, both summed in member
order.  Each step scores its candidates as plain floats; only those that
survive the cut to beam_size become entries, and a hypothesis is a chain of
back-pointer nodes (tests/oracles.py's oracle_beam_search, which steps the
members one at a time and copies every candidate's lists, is the bit-for-bit
reference).  The reserved <pad> and <bos> ids are never emitted.  Break
tokens are ordinary vocabulary items: nothing constrains their generation.

A decode returns ids and one (T, S) attention matrix (DecodeResult); the
translate command maps the ids to tokens once, into the AttentionExport that
is written, read back, partitioned and drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import DEFAULT_BREAK_TOKEN, open_output, read_text
from .errors import ConfigError, MalformedRecordError, NumericError
from .model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    DecoderState,
    ModelParams,
    decode_step,
    encode,
    init_decoder_state,
    scaled_weights,
)


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 8
    max_len_factor: float = 3.0
    max_len_constant: int = 5
    length_norm_alpha: float = 0.6
    coverage_beta: float = 0.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")
        if not 0.0 <= self.length_norm_alpha <= 1.0:
            raise ConfigError("length normalization exponent must be in [0, 1]")
        if not 0.0 <= self.coverage_beta < math.inf:
            raise ConfigError("coverage_beta must be finite and >= 0")
        if not 0.0 <= self.max_len_factor < math.inf:
            raise ConfigError("max_len_factor must be finite and >= 0")
        if self.max_len_constant < 0:
            raise ConfigError("max_len_constant must be >= 0")

    def max_len(self, source_len: int) -> int:
        """The step budget for a source; the search also stops after its
        members' max_target_len steps (see beam_search)."""
        limit = self.max_len_factor * source_len
        if not math.isfinite(limit):
            raise ConfigError(
                "max_len_factor %g times a %d-token source is not finite" % (self.max_len_factor, source_len)
            )
        return int(limit) + self.max_len_constant


class Node(NamedTuple):
    """A token with its attention row, the node before it, the hypothesis's
    length, the running sum of its rows (None without a coverage penalty)
    and Wu et al.'s (2016) coverage penalty of that sum.  The root is <bos>
    with no row, no parent and no penalty."""

    token: int
    weights: np.ndarray | None
    parent: Node | None
    length: int
    coverage: np.ndarray | None
    penalty: float


class Entry(NamedTuple):
    """A beam entry: its score is the length-normalised log-prob plus its
    node's coverage penalty.  Taking <eos> finishes it and adds no node; row
    is its row in the batched decoder state."""

    score: float
    log_prob: float
    node: Node
    finished: bool
    row: int


@dataclass
class DecodeResult:
    """The best hypothesis's ids (no <eos>), its float64 attention weights
    (T, S) with one row per id, whether it ran out of steps, its log-prob."""

    target_ids: list[int]
    weights: np.ndarray
    truncated: bool = False
    log_prob: float = 0.0

    def target_tokens(self, params: ModelParams) -> list[str]:
        return [params.trg_vocab.token(i) for i in self.target_ids]


def _member_mean(x):
    """The mean over the leading member axis, summed in member order:
    ((x1 + x2) + x3) + ...  A single member is its own mean.  Not
    x.sum(axis=0): with 8 or more members and no other axis longer than 1,
    numpy sums that axis pairwise."""
    if len(x) == 1:
        return x[0]
    total = x[0] + x[1]
    for member in x[2:]:
        total += member
    total /= len(x)
    return total


def _ensemble_step(model: ModelParams, state: DecoderState, prev_ids):
    """One decode_step of every member of a stacked model; the member
    probabilities and attention are averaged, summed in member order.
    Returns (state, log_probs (K, V), attention (K, S)) with reserved ids at
    -inf."""
    state, log_p, attn = decode_step(model, state, prev_ids)
    probs, attn = _member_mean(np.exp(log_p, out=log_p)), _member_mean(attn)
    if not np.isfinite(probs).all():
        raise NumericError("non-finite output probabilities while decoding")
    log_probs = np.log(np.maximum(probs, 1e-300, out=probs), out=probs)
    log_probs[:, (PAD_ID, BOS_ID)] = -np.inf
    return state, log_probs, attn


def _dims(hyper) -> tuple[int, int, int]:
    return hyper.embed_dim, hyper.hidden_dim, hyper.attention_dim


def as_ensemble(params_or_ensemble, size: int | None = None) -> ModelParams:
    """One stacked float64 model of the members: their flat vectors as one
    read-only (M, P) array, whose tensor views carry a leading member axis,
    with its ScaledWeights made once (model.scaled_weights): the weights
    cannot change, so the scaled copies cannot go stale.  A stacked model is
    returned as it is.  Given the member count `size`, members may come from
    an iterator that loads them: the stack is allocated at the first and
    each member copied in as it arrives, so no member outlives its copy.

    Decoding runs in float64 because in float32 BLAS rounds a row
    differently depending on how many rows step with it, so the same
    hypothesis would score differently under beam 1 and beam 8 (by ~1e-8);
    in float64 only a one-row step (BLAS's gemv) differs, by ~1e-15.
    Members must share both vocabularies, because their output distributions
    are averaged id by id and one source encoding feeds them all, and their
    embed, hidden and attention dims; a member that does not is a
    ConfigError.  The stack's length caps are the smallest of its members'."""
    if isinstance(params_or_ensemble, ModelParams):
        if params_or_ensemble.flat.ndim == 2:
            return params_or_ensemble
        params_or_ensemble = [params_or_ensemble]
    if size is None:
        params_or_ensemble = list(params_or_ensemble)
        size = len(params_or_ensemble)
    hypers = []
    # each member is dropped before the next one loads (enumerate's cached tuple would keep it)
    for m in params_or_ensemble:
        i = len(hypers) + 1
        if not hypers:
            src_vocab, trg_vocab = m.src_vocab, m.trg_vocab
            stack = np.empty((size, m.flat.size))
        elif (m.src_vocab.tokens, m.trg_vocab.tokens) != (src_vocab.tokens, trg_vocab.tokens):
            raise ConfigError("ensemble member %d has other vocabularies than member 1" % i)
        elif _dims(m.hyper) != _dims(hypers[0]):
            raise ConfigError("ensemble member %d has embed/hidden/attention dims %d/%d/%d, member 1 has %d/%d/%d"
                              % (i, *_dims(m.hyper), *_dims(hypers[0])))
        if i > size:
            raise ConfigError("ensemble has more than the %d members it was given" % size)
        stack[i - 1] = m.flat
        hypers.append(m.hyper)
        del m
    if not hypers:
        raise ConfigError("ensemble must contain at least one checkpoint")
    if len(hypers) != size:
        raise ConfigError("ensemble has %d members, not the %d it was given" % (len(hypers), size))
    hyper = replace(hypers[0], max_source_len=min(h.max_source_len for h in hypers),
                    max_target_len=min(h.max_target_len for h in hypers))
    stack.flags.writeable = False
    model = ModelParams(hyper, src_vocab, trg_vocab, stack)
    model.scaled = scaled_weights(model)
    for weights in model.scaled:
        weights.flags.writeable = False
    return model


def greedy_decode(params_or_ensemble, source_ids, max_len: int) -> DecodeResult:
    """Argmax decoding until EOS or max_len (truncation is flagged, not an
    error): beam search with beam size 1 and alpha = beta = 0."""
    config = BeamConfig(beam_size=1, length_norm_alpha=0.0, max_len_factor=0.0, max_len_constant=max_len)
    return beam_decode(params_or_ensemble, source_ids, config)


def beam_search(params_or_ensemble, source_ids, config: BeamConfig) -> Entry:
    """Standard length-normalized beam search over an ensemble.

    Each step advances all live hypotheses, of every member, as one batch.
    Every live hypothesis offers its top beam_size tokens; the finished
    entries plus these candidates are sorted stably by score and the best
    beam_size kept, and only those become entries.  A candidate's score is
    its log-prob over max(1, length) ** alpha plus the coverage penalty,
    which the siblings of a row share (taking <eos> keeps the parent's
    length and penalty).  The search takes at most
    config.max_len(len(source_ids)) steps, and at most the smallest
    max_target_len of the members: the longest target (<eos> included) that
    training accepts.  Returns the best finished entry (the best entry if
    none finished).
    """
    model = as_ensemble(params_or_ensemble)
    state = init_decoder_state(model, encode(model, source_ids))
    beam, beta = config.beam_size, config.coverage_beta
    steps = min(config.max_len(len(source_ids)), model.hyper.max_target_len)
    norm = [max(1, n) ** config.length_norm_alpha for n in range(steps + 1)]
    row_index = np.arange(beam)[:, None]
    root = Node(BOS_ID, None, None, 0, np.zeros(len(source_ids)) if beta else None, 0.0)
    beams = [Entry(0.0, 0.0, root, False, 0)]

    for _ in range(steps):
        live = [e for e in beams if not e.finished]
        if not live:
            break
        rows = np.array([e.row for e in live])
        state = DecoderState(state.h.take(rows, axis=-2), state.c.take(rows, axis=-2), state.encoder_states,
                             state.enc_proj)
        state, log_probs, attn = _ensemble_step(model, state, np.array([e.node.token for e in live]))
        top = np.argsort(-log_probs, axis=1, kind="stable")[:, :beam]
        tokens, step_log_probs = top.tolist(), log_probs[row_index[: len(live)], top].tolist()
        if beta:  # the children of a row share its coverage and penalty
            coverages = [e.node.coverage + weights for e, weights in zip(live, attn)]
            penalties = [beta * float(np.sum(np.log(np.minimum(c, 1.0)))) for c in coverages]
        else:
            coverages, penalties = [None] * len(live), [0.0] * len(live)
        pool = [e for e in beams if e.finished]
        scores = [e.score for e in pool]
        for (_, log_prob, node, _, _), ids, lps, penalty in zip(live, tokens, step_log_probs, penalties):
            child_norm = norm[node.length + 1]
            if beta:
                scores += [(log_prob + lp) / child_norm + penalty for lp in lps]
            else:  # adding the zero penalty changes no score
                scores += [(log_prob + lp) / child_norm for lp in lps]
            if EOS_ID in ids:  # finishing keeps the node's length and penalty
                j = ids.index(EOS_ID)
                scores[j - len(ids)] = (log_prob + lps[j]) / norm[node.length] + node.penalty

        beams = []
        for i in sorted(range(len(scores)), key=scores.__getitem__, reverse=True)[:beam]:
            if i < len(pool):
                beams.append(pool[i])
                continue
            row, j = divmod(i - len(pool), top.shape[1])
            _, log_prob, node, _, _ = live[row]
            total, token = log_prob + step_log_probs[row][j], tokens[row][j]
            if token == EOS_ID:
                beams.append(Entry(scores[i], total, node, True, row))
            else:
                child = Node(token, attn[row], node, node.length + 1, coverages[row], penalties[row])
                beams.append(Entry(scores[i], total, child, False, row))

    finished = [e for e in beams if e.finished] or beams
    return max(finished, key=lambda e: e.score)


def beam_decode(params_or_ensemble, source_ids, config: BeamConfig) -> DecodeResult:
    """beam_search's best entry with its ids and rows read off its nodes."""
    best = beam_search(params_or_ensemble, source_ids, config)
    node, ids, rows = best.node, [], []
    while node.parent is not None:
        ids.append(node.token)
        rows.append(node.weights)
        node = node.parent
    return DecodeResult(
        target_ids=ids[::-1],
        weights=np.stack(rows[::-1]) if rows else np.zeros((0, len(source_ids))),
        truncated=not best.finished,
        log_prob=best.log_prob,
    )


SEGMENT_LAST = "last"
SEGMENT_ALL = "all"


def extract_scored_segment(tokens: Sequence[str], mode: str, break_token: str = DEFAULT_BREAK_TOKEN) -> list[str]:
    """Select the part of a decoded output that enters scoring.

    "last": tokens after the final break token (whole sequence if none);
    "all": the sequence with break tokens removed.
    """
    tokens = list(tokens)
    if mode == SEGMENT_LAST:
        for i in range(len(tokens) - 1, -1, -1):
            if tokens[i] == break_token:
                return tokens[i + 1 :]
        return tokens
    if mode == SEGMENT_ALL:
        return [t for t in tokens if t != break_token]
    raise ConfigError("unknown segment mode %r" % mode)


# ---------------------------------------------------------------------------
# Attention export: one self-contained JSON record per line, consumed by the
# attention statistics module.
# ---------------------------------------------------------------------------

@dataclass
class AttentionExport:
    """One decoded sentence with its attention matrix and geometry."""

    index: int
    doc_id: str
    index_in_doc: int
    source_tokens: list[str]
    target_tokens: list[str]
    weights: np.ndarray
    source_focus_start: int = 0
    break_token: str = DEFAULT_BREAK_TOKEN

    def validate(self):
        if not 0 <= self.source_focus_start <= len(self.source_tokens):
            raise MalformedRecordError(
                "source_focus_start %d out of range for %d source tokens"
                % (self.source_focus_start, len(self.source_tokens))
            )
        if self.weights.shape != (len(self.target_tokens), len(self.source_tokens)):
            raise MalformedRecordError("attention matrix shape mismatch in record %d" % self.index)


def write_attention_records(path, exports: Sequence[AttentionExport]):
    with open_output(path) as fh:
        for ex in exports:
            # every field of the export, the weights as nested lists
            fh.write(json.dumps({**vars(ex), "weights": ex.weights.tolist()}, sort_keys=True, ensure_ascii=False))
            fh.write("\n")


def read_attention_records(path) -> list[AttentionExport]:
    """Records of a JSONL attention file; any line that is not a complete,
    consistent record raises MalformedRecordError naming path:line.  Every
    field of AttentionExport is required, because a guessed focus offset or
    break token would partition the attention silently wrong.  Indices and
    offsets are integers >= 0, the doc id a string and the break token one
    whitespace-free token."""
    exports = []
    for lineno, line in enumerate(read_text(path, MalformedRecordError).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            missing = [f.name for f in fields(AttentionExport) if f.name not in obj]
            if missing:
                raise MalformedRecordError("missing field %s" % ", ".join(missing))
            source_tokens = list(obj["source_tokens"])
            target_tokens = list(obj["target_tokens"])
            if not all(isinstance(tok, str) for tok in source_tokens + target_tokens):
                raise MalformedRecordError("tokens must be strings")
            weights = np.array(obj["weights"], dtype=np.float64).reshape(len(target_tokens), len(source_tokens))
            if not np.isfinite(weights).all():
                raise MalformedRecordError("non-finite attention weight")
            export = AttentionExport(
                index=obj["index"],
                doc_id=obj["doc_id"],
                index_in_doc=obj["index_in_doc"],
                source_tokens=source_tokens,
                target_tokens=target_tokens,
                weights=weights,
                source_focus_start=obj["source_focus_start"],
                break_token=obj["break_token"],
            )
            for name in ("index", "index_in_doc", "source_focus_start"):
                value = getattr(export, name)
                if type(value) is not int or value < 0:
                    raise MalformedRecordError("%s %r is not an integer >= 0" % (name, value))
            if not isinstance(export.doc_id, str):
                raise MalformedRecordError("doc_id %r is not a string" % (export.doc_id,))
            if not isinstance(export.break_token, str) or export.break_token.split() != [export.break_token]:
                raise MalformedRecordError("break_token %r is not one whitespace-free token" % (export.break_token,))
            export.validate()
        except (ValueError, KeyError, TypeError, MalformedRecordError) as exc:  # ValueError covers JSON errors
            raise MalformedRecordError("bad attention record at %s:%d: %s" % (path, lineno, exc)) from None
        exports.append(export)
    return exports
