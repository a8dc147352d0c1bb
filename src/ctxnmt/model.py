"""Minimal attention-based encoder-decoder with hand-derived gradients.

Architecture: bidirectional single-layer LSTM encoder, additive attention
(score = v . tanh(W_enc h_s + W_dec d)), single-layer LSTM decoder whose
initial hidden state is a tanh projection of the mean encoder state, and a
tanh readout combining decoder state and attention context before the output
projection.

Training runs masked minibatches: each step pads its examples to (B, S)
sources and (B, T) targets and makes one forward and one backward pass over
the whole batch.  Length masks keep padding out of everything: padding
zeroes the recurrent state and gets attention weight 0, the decoder-init
mean covers real positions only, and padded target positions have loss
weight 0, so no gradient flows from or into padding; a batch without
padding skips the masks.  One LSTM step serves the encoder, the decoder and
incremental decoding; the encoder's two directions step together as one
recurrence.  Decoding encodes through the same code as a batch of one.
encode, init_decoder_state and decode_step also take a stacked model
(decode.as_ensemble), whose tensors carry a leading member axis, and step
all its members in one call.  Runs are single-threaded and bit-reproducible
for a given seed.

The recurrences read ScaledWeights: Wx, b and Wh times the gate scale,
which is 0.5 or 1 per column, so the scaled sums are the bits of the
unscaled sums times the scale.  A stacked model's vector is read-only and
its ScaledWeights are made once (ModelParams.scaled); any other model makes
them on each call, so weights that train are never read stale.

The parameters are one flat vector, the named tensors views of it in
checkpoint order; gradients and Adam's moments share the layout, so copy,
checkpoint IO, finite checks, gradient norm and Adam are one array call each.

forward_loss() gives one example's loss and its attention weights;
backward() implements exact analytic backpropagation through the whole
computation; grad_check() verifies it against central finite differences in
double precision.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import ExtendedExample, open_output
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
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and > 0")


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


class TensorViews(dict):
    """Named views of one vector `.flat` in _tensor_specs order, the layout of
    PyTorch's parameters_to_vector.  Write in place: rebinding a name detaches it.

    A stack of M such vectors, `.flat` (M, P), gives views with a leading
    member axis; its vectors are (M, 1, n), so they broadcast over each
    member's rows as an (n,) vector does over a model's."""

    def __init__(self, flat: np.ndarray, specs):
        offset = 0
        lead = flat.shape[:-1]
        for name, shape in specs:
            size = math.prod(shape)
            if lead and len(shape) == 1:
                shape = (1,) + shape
            self[name] = flat[..., offset : offset + size].reshape(lead + shape)
            offset += size
        self.flat = flat

    def check_finite(self, what: str):
        """One isfinite over the vector; the tensor is named only on failure."""
        if not np.isfinite(self.flat).all():
            name = next(n for n, t in self.items() if not np.isfinite(t).all())
            raise NumericError("non-finite %s in tensor %s" % (what, name))


class ModelParams:
    """The weights as one flat vector, its named views `tensors`, and the
    vocabularies they were built for.  A stacked model (see
    decode.as_ensemble) holds M members' vectors as `flat` (M, P).

    `scaled` is None, or the model's ScaledWeights when its vector is
    read-only (as_ensemble): weights that cannot change need scaling once."""

    def __init__(self, hyper: HyperParams, src_vocab: Vocabulary, trg_vocab: Vocabulary, flat: np.ndarray):
        self.hyper = hyper
        self.src_vocab = src_vocab
        self.trg_vocab = trg_vocab
        self.specs = _tensor_specs(hyper, len(src_vocab), len(trg_vocab))
        self.flat = flat
        self.tensors = TensorViews(flat, self.specs)
        self.scaled = None

    @property
    def dtype(self):
        return self.flat.dtype

    def num_params(self) -> int:
        return self.flat.size

    def copy(self) -> "ModelParams":
        return ModelParams(self.hyper, self.src_vocab, self.trg_vocab, self.flat.copy())

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.hyper, self.src_vocab, self.trg_vocab, self.flat.astype(dtype))

    def zero_grads(self) -> TensorViews:
        return TensorViews(np.zeros_like(self.flat), self.specs)


def init_params(hp: HyperParams, src_vocab: Vocabulary, trg_vocab: Vocabulary) -> ModelParams:
    """Scaled-uniform (fan-based) float32 initialization; forget-gate bias set to 1."""
    rng = substream(hp.rng_seed, "init")
    specs = _tensor_specs(hp, len(src_vocab), len(trg_vocab))
    params = ModelParams(hp, src_vocab, trg_vocab, np.zeros(sum(math.prod(s) for _, s in specs), np.float32))
    for name, t in params.tensors.items():
        if not name.endswith("_b"):
            fan_in = t.shape[0]
            fan_out = t.shape[1] if t.ndim > 1 else 1
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            t[...] = rng.uniform(-limit, limit, size=t.shape)
    h = hp.hidden_dim
    for cell in ("enc_fwd", "enc_bwd", "dec"):
        params.tensors["%s_b" % cell][h : 2 * h] = 1.0
    return params


# ---------------------------------------------------------------------------
# Numerics
# ---------------------------------------------------------------------------

def softmax(x):
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _flat(x):
    """Collapse every leading axis: (..., D) -> (N, D)."""
    return x.reshape(-1, x.shape[-1])


@functools.cache
def _gate_affine(hdim, dtype):
    """Read-only (scale, shift) over the 4H gate columns i, f, g, o:
    sigmoid(z) = 0.5 tanh(0.5 z) + 0.5 on i, f and o, and tanh(z) on g."""
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), hdim)
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _lstm_cell(zs, c_prev, mask=None, out=None):
    """One LSTM step of states (..., H) from zs = z * scale, the gate
    pre-activations z = x Wx + b + h_prev Wh (..., 4H), ordered i, f, g, o,
    times _gate_affine's scale.  c = (f c_prev + i g) * mask and h = o
    tanh(c), so a row with mask 0 gets the state 0 (no mask: every row is
    real).  Returns (h, c, gates (..., 4H), tanh(c)); out = (gates, c,
    tanh_c, h) receives the results instead of new arrays."""
    gates, c, tc, h = out or (None,) * 4
    hdim = c_prev.shape[-1]
    scale, shift = _gate_affine(hdim, zs.dtype)
    gates = np.tanh(zs, out=gates)
    gates *= scale
    gates += shift
    c = np.multiply(gates[..., hdim : 2 * hdim], c_prev, out=c)
    c += gates[..., :hdim] * gates[..., 2 * hdim : 3 * hdim]
    if mask is not None:
        c *= mask
    tc = np.tanh(c, out=tc)
    return np.multiply(gates[..., 3 * hdim :], tc, out=h), c, gates, tc


class ScaledWeights(NamedTuple):
    """The LSTM weights that the recurrences read, each times _gate_affine's
    scale s over its 4H gate columns.  s is 0.5 or 1 and halving is exact,
    so x (Wx s) + b s + h (Wh s) equals (x Wx + b + h Wh) s bit for bit.
    enc_Wx (..., 2, E, 4H) and enc_b (..., 2, 1, 4H) hold the forward and
    backward encoder directions of each member, enc_Wh their recurrent
    weights as the stacked recurrence steps them: (2M, H, 4H), or (2, H, 4H)
    for a single model."""

    enc_Wx: np.ndarray
    enc_b: np.ndarray
    enc_Wh: np.ndarray
    dec_Wx: np.ndarray
    dec_b: np.ndarray
    dec_Wh: np.ndarray


def scaled_weights(params: ModelParams) -> ScaledWeights:
    """The model's ScaledWeights: the ones kept with a read-only model
    (params.scaled), else computed from the current weights, so a model
    that trains never reads stale ones."""
    if params.scaled is not None:
        return params.scaled
    t = params.tensors
    lead = t["dec_Wh"].shape[:-2]  # (M,) for a stacked model
    scale, _ = _gate_affine(params.hyper.hidden_dim, params.dtype)
    Wx, b, Wh = (np.empty(lead + (2,) + t["enc_fwd" + name].shape[len(lead):], params.dtype)
                 for name in ("_Wx", "_b", "_Wh"))
    # each direction is scaled straight into its slot: np.stack would hold both unstacked copies
    for stacked, name in ((Wx, "_Wx"), (b, "_b"), (Wh, "_Wh")):
        for k, cell in enumerate(("enc_fwd", "enc_bwd")):
            np.multiply(t[cell + name], scale, out=stacked[(slice(None),) * len(lead) + (k,)])
    return ScaledWeights(Wx, b.reshape(lead + (2, 1, -1)), Wh.reshape((-1,) + Wh.shape[-2:]),
                         t["dec_Wx"] * scale, t["dec_b"] * scale, t["dec_Wh"] * scale)


def _run_lstm(ZXs, Whs, mask, h, c):
    """Run the recurrence over time-major input pre-activations ZXs (T, ...,
    4H), scaled like Whs (ScaledWeights), from states h, c (..., H); ZXs is
    overwritten with the gates.  Whs is (H, 4H), or a stack (D, H, 4H) that
    steps D independent cells over ZXs (T, D, B, 4H) as one batched matmul.
    Where mask (T, ..., 1) is 0 the state becomes 0; None means no row is
    padded.  Returns the states (T, ..., H) and the cache for
    _run_lstm_backward."""
    gates = ZXs
    TC = np.empty(ZXs.shape[:-1] + h.shape[-1:], dtype=ZXs.dtype)
    # C[s + 1] and H[s + 1] are the states after step s
    C, H = np.empty((2, len(ZXs) + 1) + h.shape, dtype=ZXs.dtype)
    C[0], H[0] = c, h
    if mask is not None:
        mask = np.repeat(mask.astype(ZXs.dtype), h.shape[-1], axis=-1)  # full rows multiply faster
    for s in range(len(ZXs)):
        gates[s] += h @ Whs
        h, c, _, _ = _lstm_cell(gates[s], c, None if mask is None else mask[s], (gates[s], C[s + 1], TC[s], H[s + 1]))
    return H[1:], (mask, gates, C, TC, H)


def _run_lstm_backward(cache, d_out, Wh):
    """Backward through a _run_lstm call given the gradients of its states
    (T, ..., H) and the unscaled Wh.  Returns the gradients of the unscaled
    gate pre-activations (T, ..., 4H), of the initial h (..., H) and of Wh."""
    mask, gates, C, TC, H = cache
    hdim = H.shape[-1]
    # Every factor that does not depend on the incoming gradient, for all T
    # at once: dc += dh * A, du = dc * mask, dz_{i,f,g} = du * K[:3],
    # dz_o = dh * K[3] and dc_prev = du * f.
    i, f, g, o = (gates[..., k * hdim : (k + 1) * hdim] for k in range(4))
    A = o * (1.0 - TC * TC)
    K = gates * (1.0 - gates)  # sigmoid' on the i, f, o columns
    K[..., :hdim] *= g
    K[..., hdim : 2 * hdim] *= C[:-1]
    np.multiply(i, 1.0 - g * g, out=K[..., 2 * hdim : 3 * hdim])
    K[..., 3 * hdim :] *= TC
    K = K.reshape(TC.shape[:-1] + (4, hdim))
    K3, Ko = K[..., :3, :], K[..., 3, :]

    dZ = np.empty_like(K)
    dZ3, dZo = dZ[..., :3, :], dZ[..., 3, :]
    dZ = dZ.reshape(gates.shape)
    WhT = np.ascontiguousarray(np.swapaxes(Wh, -1, -2))
    dh = np.zeros_like(H[0])
    dc = np.zeros_like(C[0])
    dc3 = dc[..., None, :]  # dc is only updated in place
    for s in range(len(dZ) - 1, -1, -1):
        dh += d_out[s]
        dc += dh * A[s]
        if mask is not None:
            dc *= mask[s]
        np.multiply(dc3, K3[s], out=dZ3[s])
        np.multiply(dh, Ko[s], out=dZo[s])
        np.matmul(dZ[s], WhT, out=dh)
        dc *= f[s]

    # dWh sums h_prev^T dz over time and batch, separately per stacked cell
    lead = Wh.shape[:-2]
    h_prev = H[:-1].swapaxes(0, len(lead)).reshape(lead + (-1, hdim))
    dz = dZ.swapaxes(0, len(lead)).reshape(lead + (-1, dZ.shape[-1]))
    return dZ, dh, np.swapaxes(h_prev, -1, -2) @ dz


def _project_backward(t, cell, X, dZ, grads):
    """Adds the gradients of Wx and b to grads given dZ, those of the
    unscaled pre-activations x Wx + b; returns dX."""
    dZ = _flat(dZ)
    grads[cell + "_Wx"] += _flat(X).T @ dZ
    grads[cell + "_b"] += dZ.sum(axis=0)
    return (dZ @ t[cell + "_Wx"].T).reshape(X.shape)


def _id_batch(seqs, vocab_size, max_len, what):
    """Id sequences checked by one concatenate, one range and one length
    check, and right-padded with PAD_ID to (B, longest); returns them and
    the lengths."""
    try:
        ids = np.concatenate(seqs)
        if ids.ndim != 1:
            raise ValueError
    except ValueError:  # no sequence at all, or one that is not 1-d
        raise InputError("%s ids must be a non-empty batch of id sequences" % what) from None
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise InputError("%s id out of vocabulary range [0, %d)" % (what, vocab_size))
    lengths = np.array([len(x) for x in seqs])
    if lengths.max() > max_len:
        raise InputError("%s length %d exceeds the %d that max_%s_len allows" % (what, lengths.max(), max_len, what))
    batch = np.full((len(seqs), lengths.max()), PAD_ID, dtype=np.int64)
    batch[np.arange(batch.shape[1]) < lengths[:, None]] = ids
    return batch, lengths


def _source_batch(params: ModelParams, sources):
    """Padded source ids (B, S) and the mask of real positions."""
    src, lengths = _id_batch(sources, len(params.src_vocab), params.hyper.max_source_len, "source")
    if lengths.min() == 0:
        raise InputError("cannot encode an empty source")
    return src, np.arange(src.shape[1]) < lengths[:, None]


def _target_batch(params: ModelParams, targets):
    """Teacher-forcing arrays (B, T) with T = longest target + 1: decoder
    inputs (<bos> + target) and predictions (target + <eos>), both shifts of
    one array, and their mask (0 where a shorter row's input reads <eos>).
    max_target_len counts the <eos>, as in training and decoding."""
    trg, lengths = _id_batch(targets, len(params.trg_vocab), params.hyper.max_target_len - 1, "target")
    rows = np.pad(trg, ((0, 0), (1, 1)), constant_values=PAD_ID)
    rows[:, 0] = BOS_ID
    rows[np.arange(len(trg)), lengths + 1] = EOS_ID
    return rows[:, :-1], rows[:, 1:], np.arange(rows.shape[1] - 1) <= lengths[:, None]


def _encode(params: ModelParams, src_ids, src_mask):
    """Bidirectional encoding of a padded batch (B, S): states (B, S, 2H),
    zero at padding, and the cache for _encode_backward; a stacked model's
    states are (M, B, S, 2H).  All directions step together: direction 0 of
    the stacked recurrence reads positions 0..S-1, direction 1 reads S-1..0,
    so right padding gives the reverse direction the zero state it starts
    from.  A stacked model's M members step their 2M directions as one.
    One matmul projects the (S B, E) embedding rows for both directions of
    every member; without padding no mask is applied."""
    t, w = params.tensors, scaled_weights(params)
    lead = t["enc_fwd_Wh"].shape[:-2]  # (M,) for a stacked model
    n_src, batch = src_ids.T.shape
    X = t["src_embed"][..., src_ids.T, :]
    Z = X.reshape(lead + (1, -1, X.shape[-1])) @ w.enc_Wx
    Z += w.enc_b
    Z = Z.reshape(lead + (2, n_src, batch, -1))
    ZX = np.empty((n_src,) + lead + (2, batch, Z.shape[-1]), dtype=Z.dtype)  # time first
    ZX[..., 0, :, :] = Z[..., 0, :, :, :].swapaxes(0, len(lead))
    ZX[..., 1, :, :] = Z[..., 1, ::-1, :, :].swapaxes(0, len(lead))
    mask = None
    if not src_mask.all():
        mask = src_mask.T[..., None]
        mask = np.stack([mask, mask[::-1]] * (len(w.enc_Wh) // 2), axis=1)
    zero = np.zeros((len(w.enc_Wh), batch, params.hyper.hidden_dim), dtype=params.dtype)
    out, cache = _run_lstm(ZX.reshape((n_src, -1) + ZX.shape[-2:]), w.enc_Wh, mask, zero, zero)
    out = out.reshape(out.shape[:1] + lead + (2,) + out.shape[2:])
    states = np.concatenate([out[..., 0, :, :], out[::-1, ..., 1, :, :]], axis=-1)  # (S, ..., B, 2H)
    return np.ascontiguousarray(states.transpose(*range(1, states.ndim - 1), 0, -1)), (src_ids, src_mask, X, cache)


def _encode_backward(params: ModelParams, cache, d_states, grads):
    """Adds the encoder's and source embeddings' gradients, given those of
    _encode's states (B, S, 2H), to grads."""
    t = params.tensors
    src_ids, src_mask, X, lstm_cache = cache
    hdim = params.hyper.hidden_dim
    d_out = d_states.transpose(1, 0, 2)
    dZ, _, dWh = _run_lstm_backward(lstm_cache, np.stack([d_out[..., :hdim], d_out[::-1, :, hdim:]], axis=1),
                                    np.stack([t["enc_fwd_Wh"], t["enc_bwd_Wh"]]))
    grads["enc_fwd_Wh"] += dWh[0]
    grads["enc_bwd_Wh"] += dWh[1]
    dX = _project_backward(t, "enc_fwd", X, dZ[:, 0], grads) + _project_backward(t, "enc_bwd", X, dZ[::-1, 1], grads)
    mask = src_mask.T
    np.add.at(grads["src_embed"], src_ids.T[mask], dX[mask])


def encode(params: ModelParams, source_ids) -> np.ndarray:
    """Bidirectional encoding: one (2*hidden_dim) state per input position,
    (S, 2H), or (M, S, 2H) for a stacked model."""
    states, _ = _encode(params, *_source_batch(params, [source_ids]))
    return states[..., 0, :, :]


def _attend_cached(params: ModelParams, queries, encoder_states, enc_proj=None, src_mask=None):
    """Additive attention of queries (H,) or (K, H) over encoder_states (S,
    2H), of a stacked model's (M, K, H) over (M, S, 2H), or of a training
    batch's queries (B, T, H) over (B, S, 2H).  enc_proj, the projected
    encoder_states, has an axis for the query rows: (1, S, A), (M, 1, S, A)
    or (B, 1, S, A).  src_mask (B, 1, S) is False on padding, which gets
    weight 0.  Returns (context, weights, tanh activations)."""
    t = params.tensors
    if enc_proj is None:
        enc_proj = encoder_states @ t["attn_W_enc"]
    q = queries @ t["attn_W_dec"]
    # q copied along S, so the add runs over whole contiguous (S, A) blocks
    k = np.repeat(q[..., None, :], enc_proj.shape[-2], axis=-2)
    k += enc_proj
    np.tanh(k, out=k)
    scores = (k @ t["attn_v"][..., None])[..., 0]
    if src_mask is not None:
        scores = np.where(src_mask, scores, -np.inf)
    a = softmax(scores)
    ctx = a @ encoder_states
    return ctx, a, k


def _init_decoder(params: ModelParams, encoder_states, n_src):
    """s0 = tanh(W mean + b) over the n_src real encoder states (zero padding
    adds nothing to the sum)."""
    t = params.tensors
    hbar = encoder_states.sum(axis=-2) / n_src
    s0 = np.tanh(hbar @ t["dec_init_W"] + t["dec_init_b"])
    return s0, np.zeros_like(s0), (hbar, s0)


def _output_layer(params: ModelParams, states, encoder_states, enc_proj, src_mask=None):
    """Attention, readout and float64 log-softmax for decoder states (as in
    _attend_cached); the cache is for _backward."""
    t = params.tensors
    ctx, a, k = _attend_cached(params, states, encoder_states, enc_proj, src_mask)
    r = states @ t["readout_Ws"]
    r += ctx @ t["readout_Wc"]
    r += t["readout_b"]
    np.tanh(r, out=r)
    logits = r @ t["out_W"]
    logits += t["out_b"]
    log_probs = logits.astype(np.float64, copy=False)
    log_probs -= log_probs.max(axis=-1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))
    return log_probs, a, (k, a, ctx, r)


@dataclass
class DecoderState:
    """Incremental decoding state of K hypotheses for one sentence: h and c
    are (K, H), one row per hypothesis, or (M, K, H) for a stacked model."""

    h: np.ndarray
    c: np.ndarray
    encoder_states: np.ndarray
    enc_proj: np.ndarray


def init_decoder_state(params: ModelParams, encoder_states) -> DecoderState:
    """The one-row state of encoder_states (S, 2H), or (M, S, 2H) for a
    stacked model."""
    s0, c0, _ = _init_decoder(params, encoder_states[..., None, :, :], encoder_states.shape[-2])
    enc_proj = encoder_states @ params.tensors["attn_W_enc"]
    return DecoderState(h=s0, c=c0, encoder_states=encoder_states, enc_proj=enc_proj[..., None, :, :])


def decode_step(params: ModelParams, state: DecoderState, prev_ids):
    """Advance every row one step, feeding prev_ids (K,); returns (new_state,
    log_probs (K, V), attention_weights (K, S)).  A stacked model steps all
    members as one batched matmul per weight and returns (M, K, V) and (M,
    K, S)."""
    w = scaled_weights(params)
    z = params.tensors["trg_embed"].take(prev_ids, axis=-2) @ w.dec_Wx
    z += w.dec_b
    z += state.h @ w.dec_Wh
    h, c, _, _ = _lstm_cell(z, state.c, out=(z, None, None, None))
    log_probs, a, _ = _output_layer(params, h, state.encoder_states, state.enc_proj)
    return DecoderState(h, c, state.encoder_states, state.enc_proj), log_probs, a


def _run_decoder(params: ModelParams, dec_in, trg_mask, s0, c0):
    """Teacher-forced decoder states (B, T, H) for inputs dec_in (B, T) from
    s0, c0 (B, H), zero at padding, and the cache for _run_decoder_backward."""
    w = scaled_weights(params)
    E = params.tensors["trg_embed"][dec_in.T]
    Z = _flat(E) @ w.dec_Wx
    Z += w.dec_b
    mask = None if trg_mask.all() else trg_mask.T[..., None]
    states, cache = _run_lstm(Z.reshape(E.shape[:-1] + (-1,)), w.dec_Wh, mask, s0, c0)
    return states.transpose(1, 0, 2), (dec_in, trg_mask, E, cache)


def _run_decoder_backward(params: ModelParams, cache, d_states, grads):
    """Adds the decoder's and target embeddings' gradients, given those of
    _run_decoder's states (B, T, H), to grads; returns the gradient of s0."""
    dec_in, trg_mask, E, lstm_cache = cache
    dZ, ds0, dWh = _run_lstm_backward(lstm_cache, d_states.transpose(1, 0, 2), params.tensors["dec_Wh"])
    grads["dec_Wh"] += dWh
    dE = _project_backward(params.tensors, "dec", E, dZ, grads)
    mask = trg_mask.T
    np.add.at(grads["trg_embed"], dec_in.T[mask], dE[mask])
    return ds0


def _forward(params: ModelParams, sources, targets):
    """Teacher-forced pass over a batch padded to (B, S) sources and (B, T)
    targets.  The loss is the mean over the batch of each example's mean
    per-token cross-entropy."""
    if len(sources) != len(targets):
        raise InputError("batch has %d sources but %d targets" % (len(sources), len(targets)))
    t = params.tensors
    src_ids, src_mask = _source_batch(params, sources)
    dec_in, predict, trg_mask = _target_batch(params, targets)

    enc_states, enc_cache = _encode(params, src_ids, src_mask)
    enc_proj = enc_states @ t["attn_W_enc"]
    n_src = src_mask.sum(axis=1, keepdims=True).astype(params.dtype)
    s0, c0, init_cache = _init_decoder(params, enc_states, n_src)
    states, dec_cache = _run_decoder(params, dec_in, trg_mask, s0, c0)
    log_probs, _, out_cache = _output_layer(params, states, enc_states, enc_proj[:, None], src_mask[:, None, :])

    # token weight 1 / (T_b * B) on real positions, 0 on padding
    weights = trg_mask / (trg_mask.sum(axis=1, keepdims=True) * len(sources))
    loss = -float(np.sum(np.take_along_axis(log_probs, predict[..., None], axis=-1)[..., 0] * weights))
    if not np.isfinite(loss):
        raise NumericError("non-finite loss in forward pass")
    cache = {
        "src_ids": src_ids,
        "src_mask": src_mask,
        "predict": predict,
        "weights": weights,
        "enc_states": enc_states,
        "enc": enc_cache,
        "n_src": n_src,
        "init": init_cache,
        "dec": dec_cache,
        "states": states,
        "log_probs": log_probs,
        "out": out_cache,
    }
    return loss, cache


def forward_loss(params: ModelParams, source_ids, target_ids):
    """Mean per-token teacher-forced cross-entropy of one example and its
    attention weights (T + 1, S) in float64: one row per target token and
    one for <eos>."""
    loss, cache = _forward(params, [source_ids], [target_ids])
    _, attn, _, _ = cache["out"]
    return loss, attn[0].astype(np.float64)


def backward(params: ModelParams, sources, targets):
    """Exact gradients of a batch's loss w.r.t. every parameter tensor.

    sources and targets are equally long sequences of id arrays; the loss is
    the mean over the batch of each example's forward_loss.  Returns (loss,
    grads), the views of one vector `grads.flat` laid out like the parameters.
    """
    loss, cache = _forward(params, sources, targets)
    grads = _backward(params, cache)
    grads.check_finite("gradient")
    return loss, grads


def _backward(params: ModelParams, cache):
    t = params.tensors
    grads = params.zero_grads()
    enc_states = cache["enc_states"]
    states = cache["states"]
    k, a, ctx, r = cache["out"]

    # cross-entropy + output projection
    predict = cache["predict"]
    dlogits = np.exp(cache["log_probs"])
    rows, cols = np.indices(predict.shape)
    dlogits[rows, cols, predict] -= 1.0
    dlogits = (dlogits * cache["weights"][..., None]).astype(params.dtype)
    grads["out_W"] += _flat(r).T @ _flat(dlogits)
    grads["out_b"] += _flat(dlogits).sum(axis=0)
    dr = dlogits @ t["out_W"].T

    # readout
    drpre = dr * (1.0 - r * r)
    grads["readout_Ws"] += _flat(states).T @ _flat(drpre)
    grads["readout_Wc"] += _flat(ctx).T @ _flat(drpre)
    grads["readout_b"] += _flat(drpre).sum(axis=0)
    ds = drpre @ t["readout_Ws"].T
    dctx = drpre @ t["readout_Wc"].T

    # attention: ctx = a @ enc_states, a = softmax(k @ v), k = tanh(enc_proj + q)
    da = dctx @ enc_states.transpose(0, 2, 1)
    d_enc = a.transpose(0, 2, 1) @ dctx
    dscores = a * (da - (a * da).sum(axis=-1, keepdims=True))
    grads["attn_v"] += _flat(k).T @ dscores.ravel()
    dpre = dscores[..., None] * t["attn_v"] * (1.0 - k * k)
    d_proj = dpre.sum(axis=1)
    grads["attn_W_enc"] += _flat(enc_states).T @ _flat(d_proj)
    d_enc += d_proj @ t["attn_W_enc"].T
    dq = dpre.sum(axis=2)
    grads["attn_W_dec"] += _flat(states).T @ _flat(dq)
    ds += dq @ t["attn_W_dec"].T

    ds0 = _run_decoder_backward(params, cache["dec"], ds, grads)

    # decoder init projection: s0 = tanh(hbar @ W + b), hbar = masked mean of enc_states
    hbar, s0 = cache["init"]
    src_mask = cache["src_mask"]
    dpre0 = ds0 * (1.0 - s0 * s0)
    grads["dec_init_W"] += hbar.T @ dpre0
    grads["dec_init_b"] += dpre0.sum(axis=0)
    d_enc += ((dpre0 @ t["dec_init_W"].T) / cache["n_src"])[:, None, :] * src_mask[..., None]

    _encode_backward(params, cache["enc"], d_enc, grads)
    return grads


def grad_check(params: ModelParams, sources, targets, epsilon: float = 1e-4, num_coords: int = 200, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    of a batch's loss (sources and targets as for backward).

    Runs in double precision on a random subset of coordinates of the flat
    parameter vector, so spread across all tensors.
    """
    p64 = params.astype(np.float64)
    _, grads = backward(p64, sources, targets)
    rng = substream(seed, "grad-check")
    flat = p64.flat

    worst = 0.0
    for i in rng.choice(flat.size, size=min(num_coords, flat.size), replace=False):
        original = flat[i]
        flat[i] = original + epsilon
        loss_plus, _ = _forward(p64, sources, targets)
        flat[i] = original - epsilon
        loss_minus, _ = _forward(p64, sources, targets)
        flat[i] = original

        fd = (loss_plus - loss_minus) / (2 * epsilon)
        analytic = grads.flat[i]
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
    """Per-step logs: batch loss, target tokens (<eos> included) and the
    gradient norm before the optimizer update."""

    checkpoints: list[Checkpoint]
    losses: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    skipped: int = 0

    def loss_decreased(self) -> bool:
        """Smoke criterion: mean loss over the last tenth of the steps is below
        that over the first tenth."""
        n = len(self.losses)
        k = max(1, int(n * 0.1))
        if n < 2:
            return False
        return float(np.mean(self.losses[-k:])) < float(np.mean(self.losses[:k]))


class AdamOptimizer:
    """Adam with standard defaults, one update of the flat vector as in Apex's multi-tensor Adam."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: ModelParams, learning_rate: float):
        self.lr = learning_rate
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0

    def update(self, params: ModelParams, grads: TensorViews):
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        g, m, v = grads.flat, self.m, self.v
        m += (1 - self.beta1) * (g - m)
        v += (1 - self.beta2) * (g * g - v)
        params.flat -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


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
    savepoint_schedule: int = 4,
) -> TrainResult:
    """Minibatch training with Adam and savepoints: one backward call per
    step over the whole padded batch, with the model's own hyperparameters
    (params.hyper, which every checkpoint records).

    savepoint_schedule is the number of evenly spaced checkpoints (at least
    one), the last at the end of training.  Zero epochs returns only the
    initialization checkpoint.  A NumericError or KeyboardInterrupt during a
    step is raised with the partial TrainResult (the savepoints so far, the
    logs of every step before) as `exc.result`.
    """
    hp = params.hyper
    if savepoint_schedule < 1:
        raise ConfigError("savepoints must be >= 1, got %d" % savepoint_schedule)
    if not examples:
        raise InputError("training corpus is empty")
    pairs, skipped = _to_id_pairs(params, examples)
    if not pairs:
        raise InputError("all training examples exceed the configured length caps")

    steps_per_epoch = (len(pairs) + hp.batch_size - 1) // hp.batch_size
    total_steps = hp.epochs * steps_per_epoch
    if total_steps == 0:
        return TrainResult(checkpoints=[Checkpoint(0, params.copy())], losses=[], skipped=skipped)
    n = savepoint_schedule
    schedule = sorted({max(1, round(total_steps * k / n)) for k in range(1, n + 1)})

    optimizer = AdamOptimizer(params, hp.learning_rate)
    shuffle_rng = substream(hp.rng_seed, "shuffle")
    result = TrainResult(checkpoints=[], skipped=skipped)
    try:
        for _ in range(hp.epochs):
            order = shuffle_rng.permutation(len(pairs))
            for b in range(steps_per_epoch):
                sources, targets = zip(*(pairs[i] for i in order[b * hp.batch_size : (b + 1) * hp.batch_size]))
                loss, grads = backward(params, sources, targets)
                result.grad_norms.append(float(np.sqrt(np.sum(np.square(grads.flat, dtype=np.float64)))))
                optimizer.update(params, grads)
                result.losses.append(loss)
                result.tokens.append(sum(trg.size + 1 for trg in targets))
                if schedule and len(result.losses) == schedule[0]:
                    result.checkpoints.append(Checkpoint(schedule.pop(0), params.copy()))
    except (NumericError, KeyboardInterrupt) as exc:
        exc.result = result
        raise
    return result


# ---------------------------------------------------------------------------
# Checkpoint container: magic, u32 header length, JSON header, then the flat
# vector as little-endian float32 (named tensors in _tensor_specs order).
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
    with open_output(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(blob)) + blob)
        fh.write(params.flat.astype("<f4", copy=False).tobytes())


def load_checkpoint(path) -> ModelParams:
    """A file that is not a complete checkpoint for its own header raises
    ConfigError; non-finite weights raise NumericError.  The file's size is
    checked against the header's length before the header is read, and
    against the header before the weights are read, straight into their
    float32 vector."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(8)
            if len(head) < 8 or head[:4] != _MAGIC:
                raise ConfigError("not a checkpoint file: %s" % path)
            (header_len,) = struct.unpack("<I", head[4:])
            actual = os.fstat(fh.fileno()).st_size
            if 8 + header_len > actual:  # checked before read() allocates the header's length
                raise ConfigError("malformed checkpoint header in %s: %d bytes long in a file of %d"
                                  % (path, header_len, actual))
            try:
                header = json.loads(fh.read(header_len).decode("utf-8"))
                if header["format_version"] != _FORMAT_VERSION:
                    raise ConfigError("unsupported checkpoint version in %s" % path)
                hp = HyperParams(**header["hyperparams"])
                src_vocab = Vocabulary(header["source_vocab"])
                trg_vocab = Vocabulary(header["target_vocab"])
                specs = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
            except (ValueError, KeyError, TypeError) as exc:  # ValueError covers UTF-8 and JSON errors
                raise ConfigError("malformed checkpoint header in %s: %r" % (path, exc)) from None
            if specs != _tensor_specs(hp, len(src_vocab), len(trg_vocab)):
                raise ConfigError("checkpoint tensors missing, mis-shaped or out of order in %s" % path)
            count = sum(math.prod(shape) for _, shape in specs)
            size = 8 + header_len + 4 * count
            if actual != size:
                raise ConfigError("checkpoint %s has %d bytes, its header describes %d" % (path, actual, size))
            flat = np.empty(count, "<f4")
            if fh.readinto(flat) != flat.nbytes:
                raise ConfigError("checkpoint %s was cut short while it was read" % path)
    except OSError as exc:
        raise ConfigError("cannot read checkpoint %s: %s" % (path, exc.strerror or exc)) from None
    params = ModelParams(hp, src_vocab, trg_vocab, flat.astype(np.float32, copy=False))
    params.tensors.check_finite("values")
    return params
