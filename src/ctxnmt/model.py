"""Minimal attention-based encoder-decoder with hand-derived gradients.

Architecture: bidirectional single-layer LSTM encoder, additive attention
(score = v . tanh(W_enc h_s + W_dec d)), single-layer LSTM decoder whose
initial hidden state is a tanh projection of the mean encoder state, and a
tanh readout combining decoder state and attention context before the output
projection.  Training is single-threaded, per-example, with gradients
accumulated in a fixed order, so runs are bit-reproducible for a given seed.

backward() implements exact analytic backpropagation through the whole
computation; grad_check() verifies it against central finite differences in
double precision.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import ExtendedExample
from .errors import ConfigError, InputError, NumericError
from .rng import substream

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED_TOKENS = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3


class Vocabulary:
    """Bijective token <-> id map with fixed reserved ids."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            tokens = list(RESERVED_TOKENS) + [t for t in tokens if t not in RESERVED_TOKENS]
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ConfigError("vocabulary contains duplicate tokens")

    @classmethod
    def build(cls, token_lines: Iterable[Sequence[str]], max_size: int | None = None) -> "Vocabulary":
        """Most frequent tokens first; ties broken alphabetically."""
        counts: dict[str, int] = {}
        for line in token_lines:
            for tok in line:
                counts[tok] = counts.get(tok, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if max_size is not None:
            ordered = ordered[: max(0, max_size - len(RESERVED_TOKENS))]
        return cls(list(RESERVED_TOKENS) + [tok for tok, _ in ordered])

    def __len__(self):
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        return self.tokens[idx]

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.id(t) for t in tokens], dtype=np.int64)

    def decode(self, ids: Sequence[int], strip_reserved: bool = True) -> list[str]:
        out = []
        for i in ids:
            tok = self.tokens[int(i)]
            if strip_reserved and tok in RESERVED_TOKENS:
                continue
            out.append(tok)
        return out


@dataclass(frozen=True)
class HyperParams:
    embed_dim: int = 32
    hidden_dim: int = 48
    attention_dim: int = 32
    max_source_len: int = 100
    max_target_len: int = 100
    learning_rate: float = 0.003
    batch_size: int = 8
    epochs: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("embed_dim", "hidden_dim", "attention_dim", "max_source_len", "max_target_len"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1" % name)
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")


def _tensor_specs(hp: HyperParams, n_src: int, n_trg: int) -> list[tuple[str, tuple[int, ...]]]:
    e, h, a = hp.embed_dim, hp.hidden_dim, hp.attention_dim
    specs = [("src_embed", (n_src, e)), ("trg_embed", (n_trg, e))]
    for cell in ("enc_fwd", "enc_bwd", "dec"):
        specs += [
            ("%s_Wx" % cell, (e, 4 * h)),
            ("%s_Wh" % cell, (h, 4 * h)),
            ("%s_b" % cell, (4 * h,)),
        ]
    specs += [
        ("dec_init_W", (2 * h, h)),
        ("dec_init_b", (h,)),
        ("attn_W_enc", (2 * h, a)),
        ("attn_W_dec", (h, a)),
        ("attn_v", (a,)),
        ("readout_Ws", (h, h)),
        ("readout_Wc", (2 * h, h)),
        ("readout_b", (h,)),
        ("out_W", (h, n_trg)),
        ("out_b", (n_trg,)),
    ]
    return specs


class ModelParams:
    """Named-tensor container plus the vocabularies it was built for."""

    def __init__(self, hyper: HyperParams, src_vocab: Vocabulary, trg_vocab: Vocabulary, tensors: dict[str, np.ndarray]):
        self.hyper = hyper
        self.src_vocab = src_vocab
        self.trg_vocab = trg_vocab
        self.tensors = tensors

    @property
    def dtype(self):
        return self.tensors["src_embed"].dtype

    def num_params(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.hyper, self.src_vocab, self.trg_vocab, {k: v.copy() for k, v in self.tensors.items()})

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.hyper, self.src_vocab, self.trg_vocab, {k: v.astype(dtype) for k, v in self.tensors.items()})

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def validate_finite(self):
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t)):
                raise NumericError("non-finite values in tensor %s" % name)


def init_params(hp: HyperParams, src_vocab: Vocabulary, trg_vocab: Vocabulary, dtype=np.float32) -> ModelParams:
    """Scaled-uniform (fan-based) initialization; forget-gate bias set to 1."""
    rng = substream(hp.rng_seed, "init")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _tensor_specs(hp, len(src_vocab), len(trg_vocab)):
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            fan_in = shape[0]
            fan_out = shape[1] if len(shape) > 1 else 1
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
    h = hp.hidden_dim
    for cell in ("enc_fwd", "enc_bwd", "dec"):
        tensors["%s_b" % cell][h : 2 * h] = 1.0
    return ModelParams(hp, src_vocab, trg_vocab, tensors)


@dataclass
class AttentionRecord:
    """Per-output-token attention distribution over input positions."""

    source_tokens: list[str]
    target_tokens: list[str]
    weights: np.ndarray  # (T, S), rows sum to 1

    def validate(self, tol: float = 1e-6):
        if self.weights.shape != (len(self.target_tokens), len(self.source_tokens)):
            raise NumericError("attention matrix shape does not match token counts")
        if np.any(self.weights < -tol) or np.any(self.weights > 1 + tol):
            raise NumericError("attention weights outside [0, 1]")
        sums = self.weights.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > tol):
            raise NumericError("attention row sums deviate from 1 by more than %g" % tol)


# ---------------------------------------------------------------------------
# Numerics
# ---------------------------------------------------------------------------

def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _lstm_step(Wx, Wh, b, x, h_prev, c_prev):
    """One LSTM step for a single state (H,) or a batch of states (K, H)."""
    hdim = h_prev.shape[-1]
    z = x @ Wx + h_prev @ Wh + b
    i = _sigmoid(z[..., :hdim])
    f = _sigmoid(z[..., hdim : 2 * hdim])
    g = np.tanh(z[..., 2 * hdim : 3 * hdim])
    o = _sigmoid(z[..., 3 * hdim :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc)


def _lstm_backward(Wx, Wh, cache, dh, dc, grads, prefix):
    x, h_prev, c_prev, i, f, g, o, tc = cache
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    dc_prev = dc_total * f
    dz = np.concatenate([di * i * (1 - i), df * f * (1 - f), dg * (1 - g * g), do * o * (1 - o)])
    grads[prefix + "_Wx"] += np.outer(x, dz)
    grads[prefix + "_Wh"] += np.outer(h_prev, dz)
    grads[prefix + "_b"] += dz
    return Wx @ dz, Wh @ dz, dc_prev


def _validate_ids(ids, vocab_size, what):
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise InputError("%s id out of vocabulary range [0, %d)" % (what, vocab_size))
    return ids.astype(np.int64)


def encode(params: ModelParams, source_ids) -> np.ndarray:
    """Bidirectional encoding: one (2*hidden_dim) state per input position."""
    states, _ = _encode_cached(params, source_ids)
    return states


def _encode_cached(params: ModelParams, source_ids):
    hp = params.hyper
    ids = _validate_ids(source_ids, len(params.src_vocab), "source")
    if ids.size == 0:
        raise InputError("cannot encode an empty source")
    if ids.size > hp.max_source_len:
        raise InputError("source length %d exceeds max_source_len %d" % (ids.size, hp.max_source_len))
    t = params.tensors
    emb = t["src_embed"][ids]  # (S, E)
    S = ids.size
    hdim = hp.hidden_dim
    dtype = params.dtype

    fwd_h = np.zeros((S, hdim), dtype=dtype)
    fwd_caches = []
    h = np.zeros(hdim, dtype=dtype)
    c = np.zeros(hdim, dtype=dtype)
    for s in range(S):
        h, c, cache = _lstm_step(t["enc_fwd_Wx"], t["enc_fwd_Wh"], t["enc_fwd_b"], emb[s], h, c)
        fwd_h[s] = h
        fwd_caches.append(cache)

    bwd_h = np.zeros((S, hdim), dtype=dtype)
    bwd_caches = [None] * S
    h = np.zeros(hdim, dtype=dtype)
    c = np.zeros(hdim, dtype=dtype)
    for s in reversed(range(S)):
        h, c, cache = _lstm_step(t["enc_bwd_Wx"], t["enc_bwd_Wh"], t["enc_bwd_b"], emb[s], h, c)
        bwd_h[s] = h
        bwd_caches[s] = cache

    states = np.concatenate([fwd_h, bwd_h], axis=1)
    return states, {"ids": ids, "fwd": fwd_caches, "bwd": bwd_caches, "states": states}


def attend(params: ModelParams, decoder_state, encoder_states, enc_proj=None):
    """Additive attention; returns (context_vector, weights)."""
    if len(encoder_states) == 0:
        raise InputError("attend requires at least one encoder state")
    ctx, a, _ = _attend_cached(params, decoder_state, encoder_states, enc_proj)
    return ctx, a


def _attend_cached(params: ModelParams, decoder_state, encoder_states, enc_proj=None):
    t = params.tensors
    if enc_proj is None:
        enc_proj = encoder_states @ t["attn_W_enc"]
    q = decoder_state @ t["attn_W_dec"]
    k = np.tanh(enc_proj + q[..., None, :])
    scores = k @ t["attn_v"]
    a = softmax(scores)
    ctx = a @ encoder_states
    return ctx, a, (k, a)


def _init_decoder(params: ModelParams, encoder_states):
    t = params.tensors
    hbar = encoder_states.mean(axis=0)
    pre = hbar @ t["dec_init_W"] + t["dec_init_b"]
    s0 = np.tanh(pre)
    c0 = np.zeros_like(s0)
    return s0, c0, (hbar, s0)


def _decoder_step(params: ModelParams, prev_ids, s, c, enc_states, enc_proj):
    """LSTM, attention, readout and float64 log-softmax for one target
    position, on one state (H,) or a batch (K, H); the cache is for _backward."""
    t = params.tensors
    x = t["trg_embed"][prev_ids]
    s, c, lstm_cache = _lstm_step(t["dec_Wx"], t["dec_Wh"], t["dec_b"], x, s, c)
    ctx, a, attn_cache = _attend_cached(params, s, enc_states, enc_proj)
    r = np.tanh(s @ t["readout_Ws"] + ctx @ t["readout_Wc"] + t["readout_b"])
    logits = (r @ t["out_W"] + t["out_b"]).astype(np.float64)
    log_probs = logits - logits.max(axis=-1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))
    return s, c, log_probs, a, {"lstm": lstm_cache, "attn": attn_cache, "ctx": ctx, "r": r, "s": s}


@dataclass
class DecoderState:
    """Incremental decoding state of K hypotheses for one sentence: h and c
    are (K, H), one row per hypothesis."""

    h: np.ndarray
    c: np.ndarray
    encoder_states: np.ndarray
    enc_proj: np.ndarray


def init_decoder_state(params: ModelParams, encoder_states) -> DecoderState:
    s0, c0, _ = _init_decoder(params, encoder_states)
    enc_proj = encoder_states @ params.tensors["attn_W_enc"]
    return DecoderState(h=s0[None, :], c=c0[None, :], encoder_states=encoder_states, enc_proj=enc_proj)


def decode_step(params: ModelParams, state: DecoderState, prev_ids):
    """Advance every row one step, feeding prev_ids (K,); returns (new_state,
    log_probs (K, V), attention_weights (K, S))."""
    h, c, log_probs, a, _ = _decoder_step(params, prev_ids, state.h, state.c, state.encoder_states, state.enc_proj)
    return DecoderState(h, c, state.encoder_states, state.enc_proj), log_probs, a


def _forward(params: ModelParams, source_ids, target_ids):
    hp = params.hyper
    trg = _validate_ids(target_ids, len(params.trg_vocab), "target")
    if trg.size > hp.max_target_len:
        raise InputError("target length %d exceeds max_target_len %d" % (trg.size, hp.max_target_len))
    t = params.tensors

    enc_states, enc_cache = _encode_cached(params, source_ids)
    enc_proj = enc_states @ t["attn_W_enc"]
    s, c, init_cache = _init_decoder(params, enc_states)

    dec_inputs = np.concatenate([[BOS_ID], trg])
    predict = np.concatenate([trg, [EOS_ID]])
    T = predict.size

    steps = []
    attn = np.zeros((T, enc_states.shape[0]), dtype=np.float64)
    loss = 0.0
    for step in range(T):
        s, c, log_probs, attn[step], step_cache = _decoder_step(params, dec_inputs[step], s, c, enc_states, enc_proj)
        loss -= log_probs[predict[step]]
        step_cache.update(input_id=dec_inputs[step], p=np.exp(log_probs))
        steps.append(step_cache)
    loss /= T
    if not np.isfinite(loss):
        raise NumericError("non-finite loss in forward pass")

    record = AttentionRecord(
        source_tokens=[params.src_vocab.token(i) for i in enc_cache["ids"]],
        target_tokens=[params.trg_vocab.token(i) for i in predict],
        weights=attn,
    )
    cache = {
        "enc": enc_cache,
        "enc_proj": enc_proj,
        "init": init_cache,
        "steps": steps,
        "predict": predict,
        "T": T,
    }
    return float(loss), record, cache


def forward_loss(params: ModelParams, source_ids, target_ids):
    """Mean per-token teacher-forced cross-entropy plus the attention record."""
    loss, record, _ = _forward(params, source_ids, target_ids)
    return loss, record


def backward(params: ModelParams, source_ids, target_ids):
    """Exact gradients of forward_loss w.r.t. every parameter tensor."""
    loss, record, cache = _forward(params, source_ids, target_ids)
    grads = _backward(params, cache)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient in tensor %s" % name)
    return loss, record, grads


def _backward(params: ModelParams, cache):
    t = params.tensors
    hp = params.hyper
    grads = params.zero_grads()
    enc_states = cache["enc"]["states"]
    S = enc_states.shape[0]
    T = cache["T"]
    dtype = params.dtype

    d_enc = np.zeros_like(enc_states)  # (S, 2H)
    dh_rec = np.zeros(hp.hidden_dim, dtype=dtype)
    dc_rec = np.zeros(hp.hidden_dim, dtype=dtype)

    for step in reversed(range(T)):
        data = cache["steps"][step]
        s = data["s"]
        ctx = data["ctx"]
        r = data["r"]
        k, a = data["attn"]

        # cross-entropy + output projection
        dlogits = (data["p"].copy()).astype(dtype)
        dlogits[cache["predict"][step]] -= 1.0
        dlogits /= T
        grads["out_W"] += np.outer(r, dlogits)
        grads["out_b"] += dlogits
        dr = t["out_W"] @ dlogits

        # readout
        drpre = dr * (1.0 - r * r)
        grads["readout_Ws"] += np.outer(s, drpre)
        grads["readout_Wc"] += np.outer(ctx, drpre)
        grads["readout_b"] += drpre
        ds = t["readout_Ws"] @ drpre
        dctx = t["readout_Wc"] @ drpre

        # attention: ctx = a @ enc_states, a = softmax(k @ v), k = tanh(enc_proj + q)
        da = enc_states @ dctx
        d_enc += np.outer(a, dctx)
        dscores = a * (da - a @ da)
        grads["attn_v"] += k.T @ dscores
        dk = np.outer(dscores, t["attn_v"])
        dpre = dk * (1.0 - k * k)
        grads["attn_W_enc"] += enc_states.T @ dpre
        d_enc += dpre @ t["attn_W_enc"].T
        dq = dpre.sum(axis=0)
        grads["attn_W_dec"] += np.outer(s, dq)
        ds += t["attn_W_dec"] @ dq

        # decoder recurrence
        ds += dh_rec
        dx, dh_rec, dc_rec = _lstm_backward(t["dec_Wx"], t["dec_Wh"], data["lstm"], ds, dc_rec, grads, "dec")
        grads["trg_embed"][data["input_id"]] += dx

    # decoder init projection: s0 = tanh(hbar @ W + b), hbar = mean(enc_states)
    hbar, s0 = cache["init"]
    dpre0 = dh_rec * (1.0 - s0 * s0)
    grads["dec_init_W"] += np.outer(hbar, dpre0)
    grads["dec_init_b"] += dpre0
    d_enc += (t["dec_init_W"] @ dpre0) / S

    # encoder BPTT
    hdim = hp.hidden_dim
    d_fwd = d_enc[:, :hdim]
    d_bwd = d_enc[:, hdim:]
    src_ids = cache["enc"]["ids"]

    dh = np.zeros(hdim, dtype=dtype)
    dc = np.zeros(hdim, dtype=dtype)
    for s_pos in reversed(range(S)):
        dx, dh, dc = _lstm_backward(
            t["enc_fwd_Wx"], t["enc_fwd_Wh"], cache["enc"]["fwd"][s_pos], d_fwd[s_pos] + dh, dc, grads, "enc_fwd"
        )
        grads["src_embed"][src_ids[s_pos]] += dx

    dh = np.zeros(hdim, dtype=dtype)
    dc = np.zeros(hdim, dtype=dtype)
    for s_pos in range(S):
        dx, dh, dc = _lstm_backward(
            t["enc_bwd_Wx"], t["enc_bwd_Wh"], cache["enc"]["bwd"][s_pos], d_bwd[s_pos] + dh, dc, grads, "enc_bwd"
        )
        grads["src_embed"][src_ids[s_pos]] += dx

    return grads


def grad_check(params: ModelParams, source_ids, target_ids, epsilon: float = 1e-4, num_coords: int = 200, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs in double precision on a random subset of coordinates spread across
    all tensors.
    """
    p64 = params.astype(np.float64)
    _, _, grads = backward(p64, source_ids, target_ids)
    rng = substream(seed, "grad-check")

    names = sorted(p64.tensors)
    sizes = np.array([p64.tensors[n].size for n in names])
    cumulative = np.cumsum(sizes)
    total = int(cumulative[-1])

    worst = 0.0
    for flat_index in rng.choice(total, size=min(num_coords, total), replace=False):
        tensor_pos = int(np.searchsorted(cumulative, flat_index, side="right"))
        name = names[tensor_pos]
        offset = int(flat_index - (cumulative[tensor_pos] - sizes[tensor_pos]))
        tensor = p64.tensors[name]
        idx = np.unravel_index(offset, tensor.shape)

        original = tensor[idx]
        tensor[idx] = original + epsilon
        loss_plus, _, _ = _forward(p64, source_ids, target_ids)
        tensor[idx] = original - epsilon
        loss_minus, _, _ = _forward(p64, source_ids, target_ids)
        tensor[idx] = original

        fd = (loss_plus - loss_minus) / (2 * epsilon)
        analytic = grads[name][idx]
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    step: int
    params: ModelParams


@dataclass
class TrainResult:
    checkpoints: list[Checkpoint]
    losses: list[float] = field(default_factory=list)
    skipped: int = 0

    def loss_decreased(self, fraction: float = 0.1) -> bool:
        """Smoke criterion: mean loss over the last fraction of steps is below
        that over the first fraction."""
        n = len(self.losses)
        k = max(1, int(n * fraction))
        if n < 2:
            return False
        return float(np.mean(self.losses[-k:])) < float(np.mean(self.losses[:k]))


class AdamOptimizer:
    """Adaptive moment estimation with standard defaults."""

    def __init__(self, params: ModelParams, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = params.zero_grads()
        self.v = params.zero_grads()
        self.t = 0

    def update(self, params: ModelParams, grads: dict[str, np.ndarray]):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            params.tensors[name] -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


def _to_id_pairs(params: ModelParams, examples: Sequence[ExtendedExample]):
    pairs = []
    skipped = 0
    hp = params.hyper
    for ex in examples:
        src = params.src_vocab.encode(ex.source_tokens)
        trg = params.trg_vocab.encode(ex.target_tokens)
        if src.size == 0 or src.size > hp.max_source_len or trg.size + 1 > hp.max_target_len:
            skipped += 1
            continue
        pairs.append((src, trg))
    return pairs, skipped


def train(
    params: ModelParams,
    examples: Sequence[ExtendedExample],
    hp: HyperParams | None = None,
    savepoint_schedule=4,
) -> TrainResult:
    """Stochastic gradient training with savepoints.

    savepoint_schedule is either an int (that many evenly spaced checkpoints,
    the last at the end of training) or an explicit sequence of 1-based step
    indices.  Zero epochs returns only the initialization checkpoint.  On
    numeric failure a NumericError is raised with the checkpoints collected so
    far attached as `exc.checkpoints`.
    """
    hp = hp or params.hyper
    if not examples:
        raise InputError("training corpus is empty")
    pairs, skipped = _to_id_pairs(params, examples)
    if not pairs:
        raise InputError("all training examples exceed the configured length caps")

    steps_per_epoch = (len(pairs) + hp.batch_size - 1) // hp.batch_size
    total_steps = hp.epochs * steps_per_epoch
    if isinstance(savepoint_schedule, int):
        n = max(0, savepoint_schedule)
        schedule = sorted({max(1, round(total_steps * k / n)) for k in range(1, n + 1)}) if n and total_steps else []
    else:
        schedule = sorted({int(s) for s in savepoint_schedule if 1 <= int(s) <= total_steps})

    if hp.epochs == 0 or total_steps == 0:
        return TrainResult(checkpoints=[Checkpoint(0, params.copy())], losses=[], skipped=skipped)

    optimizer = AdamOptimizer(params, hp.learning_rate)
    shuffle_rng = substream(hp.rng_seed, "shuffle")
    result = TrainResult(checkpoints=[], skipped=skipped)
    step = 0
    try:
        for _ in range(hp.epochs):
            order = shuffle_rng.permutation(len(pairs))
            for b in range(steps_per_epoch):
                batch = order[b * hp.batch_size : (b + 1) * hp.batch_size]
                grads = params.zero_grads()
                batch_loss = 0.0
                for idx in batch:
                    src, trg = pairs[idx]
                    loss, _, g = backward(params, src, trg)
                    batch_loss += loss
                    for name in grads:
                        grads[name] += g[name]
                scale = np.asarray(1.0 / len(batch), dtype=params.dtype)
                for name in grads:
                    grads[name] *= scale
                batch_loss /= len(batch)
                if not np.isfinite(batch_loss):
                    raise NumericError("non-finite loss at training step %d" % (step + 1))
                optimizer.update(params, grads)
                result.losses.append(batch_loss)
                step += 1
                if schedule and step == schedule[0]:
                    schedule.pop(0)
                    result.checkpoints.append(Checkpoint(step, params.copy()))
    except NumericError as exc:
        exc.checkpoints = result.checkpoints
        raise
    return result


# ---------------------------------------------------------------------------
# Checkpoint container: magic, u32 header length, JSON header, then named
# tensors as little-endian float32 in header order.
# ---------------------------------------------------------------------------

_MAGIC = b"CNMT"
_FORMAT_VERSION = 1


def save_checkpoint(params: ModelParams, path):
    header = {
        "format_version": _FORMAT_VERSION,
        "hyperparams": asdict(params.hyper),
        "source_vocab": params.src_vocab.tokens,
        "target_vocab": params.trg_vocab.tokens,
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in params.tensors.items()],
        "dtype": "float32",
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, tensor in params.tensors.items():
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_checkpoint(path) -> ModelParams:
    """A file that is not a complete checkpoint for its own header raises
    ConfigError; non-finite weights raise NumericError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError("cannot read checkpoint %s: %s" % (path, exc.strerror or exc)) from None
    if len(raw) < 8 or raw[:4] != _MAGIC:
        raise ConfigError("not a checkpoint file: %s" % path)
    (header_len,) = struct.unpack("<I", raw[4:8])
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
        if header["format_version"] != _FORMAT_VERSION:
            raise ConfigError("unsupported checkpoint version in %s" % path)
        hp = HyperParams(**header["hyperparams"])
        src_vocab = Vocabulary(header["source_vocab"])
        trg_vocab = Vocabulary(header["target_vocab"])
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers UTF-8 and JSON errors
        raise ConfigError("malformed checkpoint header in %s: %r" % (path, exc)) from None
    expected = dict(_tensor_specs(hp, len(src_vocab), len(trg_vocab)))
    if len(specs) != len(expected) or dict(specs) != expected:
        raise ConfigError("checkpoint tensors missing or mis-shaped in %s" % path)
    offset = 8 + header_len
    size = offset + 4 * sum(int(np.prod(shape)) for _, shape in specs)
    if len(raw) != size:
        raise ConfigError("checkpoint %s has %d bytes, its header describes %d" % (path, len(raw), size))
    tensors = {}
    for name, shape in specs:
        count = int(np.prod(shape))
        tensors[name] = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(shape).astype(np.float32)
        offset += count * 4
    params = ModelParams(hp, src_vocab, trg_vocab, tensors)
    params.validate_finite()
    return params
