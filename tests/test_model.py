"""Encoder-decoder unit tests: shapes, hand-checked values, gradients,
training determinism, checkpoint format."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ctxnmt import model
from ctxnmt.corpus import ContextConfig, Marking, TranslationUnit, extend_corpus
from ctxnmt.decode import as_ensemble
from ctxnmt.errors import ConfigError, InputError
from ctxnmt.model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    DecoderState,
    HyperParams,
    Vocabulary,
    _encode,
    _attend_cached,
    _source_batch,
    backward,
    decode_step,
    encode,
    forward_loss,
    grad_check,
    init_decoder_state,
    init_params,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train,
)

from attention_checks import assert_attention_rows
from oracles import (
    oracle_encode,
    oracle_encode_backward,
    oracle_lstm_step,
    oracle_run_decoder,
    oracle_run_decoder_backward,
)


def tiny_model(seed=1, **hp_kwargs):
    src_vocab = Vocabulary.build([["a", "b", "c", "d", "e"]])
    trg_vocab = Vocabulary.build([["x", "y", "z", "w"]])
    defaults = dict(embed_dim=6, hidden_dim=7, attention_dim=5, rng_seed=seed)
    defaults.update(hp_kwargs)
    hp = HyperParams(**defaults)
    return init_params(hp, src_vocab, trg_vocab), src_vocab, trg_vocab


def zeroed(params):
    z = params.copy()
    for t in z.tensors.values():
        t[...] = 0.0
    return z


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary.build([["b", "a", "b"]])
        assert v.id("<pad>") == PAD_ID
        assert v.id("<bos>") == BOS_ID
        assert v.id("<eos>") == EOS_ID
        assert v.id("<unk>") == UNK_ID
        assert v.id("missing") == UNK_ID

    def test_bijection_and_frequency_order(self):
        v = Vocabulary.build([["b", "a", "b"]])
        assert v.token(v.id("a")) == "a"
        assert v.id("b") < v.id("a")  # b is more frequent

    def test_size_cap(self):
        v = Vocabulary.build([["a", "b", "c", "d"]], max_size=6)
        assert len(v) == 6


class TestEncode:
    def test_shape_contract(self):
        params, src_vocab, _ = tiny_model()
        states = encode(params, src_vocab.encode(["a", "b", "c"]))
        assert states.shape == (3, 2 * params.hyper.hidden_dim)

    def test_zero_params_zero_states(self):
        params, src_vocab, _ = tiny_model()
        states = encode(zeroed(params), src_vocab.encode(["a", "b"]))
        assert np.all(states == 0.0)

    def test_reversal_swaps_directions(self):
        params, src_vocab, _ = tiny_model()
        swapped = params.copy()
        for suffix in ("Wx", "Wh", "b"):
            swapped.tensors["enc_fwd_" + suffix][...] = params.tensors["enc_bwd_" + suffix]
            swapped.tensors["enc_bwd_" + suffix][...] = params.tensors["enc_fwd_" + suffix]
        ids = src_vocab.encode(["a", "b", "c", "d"])
        h = params.hyper.hidden_dim
        straight = encode(params, ids)
        reversed_states = encode(swapped, ids[::-1].copy())[::-1]
        swapped_halves = np.concatenate([reversed_states[:, h:], reversed_states[:, :h]], axis=1)
        assert np.allclose(straight, swapped_halves, atol=1e-6)

    def test_out_of_vocab_id_rejected(self):
        params, _, _ = tiny_model()
        with pytest.raises(InputError):
            encode(params, np.array([10 ** 6]))

    def test_length_cap(self):
        params, src_vocab, _ = tiny_model(max_source_len=2)
        with pytest.raises(InputError):
            encode(params, src_vocab.encode(["a", "b", "c"]))


class TestAttend:
    def test_softmax_hand_value(self):
        weights = softmax(np.array([math.log(2.0), 0.0]))
        assert np.allclose(weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_equal_scores_uniform(self):
        params, src_vocab, _ = tiny_model()
        z = zeroed(params)
        states = np.ones((4, 2 * params.hyper.hidden_dim))
        _, weights, _ = _attend_cached(z, np.zeros(params.hyper.hidden_dim), states)
        assert np.allclose(weights, 0.25)

    def test_single_state(self):
        params, _, _ = tiny_model()
        state = np.arange(2 * params.hyper.hidden_dim, dtype=np.float64)
        ctx, weights, _ = _attend_cached(params, np.zeros(params.hyper.hidden_dim), state[None, :])
        assert np.allclose(weights, [1.0])
        assert np.allclose(ctx, state)

    def test_engineered_log2_scores(self):
        # attention_dim 1, v = [1], zero decoder projection: score_s = tanh(h_s)
        params, _, _ = tiny_model(attention_dim=1, hidden_dim=1)
        z = zeroed(params).astype(np.float64)
        z.tensors["attn_v"][0] = 1.0
        z.tensors["attn_W_enc"][0, 0] = 1.0
        states = np.array([[np.arctanh(math.log(2.0)), 0.0], [0.0, 0.0]])
        _, weights, _ = _attend_cached(z, np.zeros(1), states)
        assert np.allclose(weights, [2 / 3, 1 / 3], atol=1e-12)


class TestForwardLoss:
    def test_uniform_distribution_loss(self):
        params, src_vocab, trg_vocab = tiny_model()
        z = zeroed(params)
        loss, _ = forward_loss(z, src_vocab.encode(["a", "b"]), trg_vocab.encode(["x"]))
        assert loss == pytest.approx(math.log(len(trg_vocab)), abs=1e-6)

    def test_one_hot_output_zero_loss(self):
        params, src_vocab, _ = tiny_model()
        z = zeroed(params).astype(np.float64)
        z.tensors["out_b"][:] = -50.0
        z.tensors["out_b"][EOS_ID] = 50.0
        loss, _ = forward_loss(z, src_vocab.encode(["a"]), np.array([], dtype=np.int64))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_zero_loss_zero_gradients(self):
        params, src_vocab, _ = tiny_model()
        z = zeroed(params).astype(np.float64)
        z.tensors["out_b"][:] = -50.0
        z.tensors["out_b"][EOS_ID] = 50.0
        _, grads = backward(z, [src_vocab.encode(["a"])], [np.array([], dtype=np.int64)])
        for g in grads.values():
            assert np.allclose(g, 0.0, atol=1e-10)

    def test_attention_rows_sum_to_one(self):
        params, src_vocab, trg_vocab = tiny_model()
        _, weights = forward_loss(params, src_vocab.encode(["a", "b", "c"]), trg_vocab.encode(["x", "y"]))
        assert_attention_rows(weights, 3, 3)  # targets + EOS step

    def test_pure_function(self):
        params, src_vocab, trg_vocab = tiny_model()
        src = src_vocab.encode(["a", "b"])
        trg = trg_vocab.encode(["x", "y"])
        loss1, _ = forward_loss(params, src, trg)
        forward_loss(params, src_vocab.encode(["c", "d", "e"]), trg_vocab.encode(["z"]))
        loss2, _ = forward_loss(params, src, trg)
        assert loss1 == loss2


class TestGradients:
    def test_grad_check_small_model(self):
        params, src_vocab, trg_vocab = tiny_model(seed=5)
        assert params.num_params() <= 10 ** 4
        err = grad_check(
            params,
            [src_vocab.encode(["a", "b", "c", "d"])],
            [trg_vocab.encode(["x", "y", "z"])],
            epsilon=1e-4,
            num_coords=250,
            seed=11,
        )
        assert err < 1e-3

    def test_epsilon_halving_second_order(self):
        params, src_vocab, trg_vocab = tiny_model(seed=6)
        src = src_vocab.encode(["a", "b"])
        trg = trg_vocab.encode(["x", "y"])
        err_full = grad_check(params, [src], [trg], epsilon=1e-4, num_coords=120, seed=2)
        err_half = grad_check(params, [src], [trg], epsilon=5e-5, num_coords=120, seed=2)
        assert err_half <= 4 * err_full + 1e-6

    def test_unused_embedding_rows_zero_grad(self):
        params, src_vocab, trg_vocab = tiny_model()
        src = src_vocab.encode(["a", "b"])
        trg = trg_vocab.encode(["x"])
        _, grads = backward(params, [src], [trg])
        unused = [i for i in range(len(src_vocab)) if i not in set(src.tolist())]
        for i in unused:
            assert np.all(grads["src_embed"][i] == 0.0)


def mixed_batch(src_vocab, trg_vocab, seed=0):
    """Sources of lengths 1..5 and targets of lengths 0..4 (one empty)."""
    rng = np.random.default_rng(seed)
    first_src, first_trg = len(RESERVED_TOKENS), len(RESERVED_TOKENS)
    sources = [rng.integers(first_src, len(src_vocab), size=n) for n in (3, 1, 5, 2, 4)]
    targets = [rng.integers(first_trg, len(trg_vocab), size=n) for n in (2, 0, 4, 1, 3)]
    return sources, targets


def mean_of_single_grads(params, sources, targets):
    singles = [backward(params, [s], [t])[1] for s, t in zip(sources, targets)]
    return {name: sum(g[name] for g in singles) / len(singles) for name in singles[0]}


def max_abs_diff(a, b):
    return max(float(np.max(np.abs(a[name] - b[name]))) for name in a)


class TestBatch:
    def test_grad_check_mixed_length_batch(self):
        params, src_vocab, trg_vocab = tiny_model(seed=7)
        sources, targets = mixed_batch(src_vocab, trg_vocab)
        err = grad_check(params, sources, targets, epsilon=1e-4, num_coords=250, seed=3)
        assert err < 1e-3

    def test_batched_equals_mean_of_single_examples(self):
        params, src_vocab, trg_vocab = tiny_model(seed=8)
        p64 = params.astype(np.float64)
        sources, targets = mixed_batch(src_vocab, trg_vocab, seed=1)
        loss, grads = backward(p64, sources, targets)
        losses = [forward_loss(p64, s, t)[0] for s, t in zip(sources, targets)]
        assert loss == pytest.approx(np.mean(losses), rel=1e-12)
        assert max_abs_diff(grads, mean_of_single_grads(p64, sources, targets)) < 1e-10

    def test_padding_gets_no_gradient(self):
        params, src_vocab, trg_vocab = tiny_model(seed=9)
        p64 = params.astype(np.float64)
        sources, targets = mixed_batch(src_vocab, trg_vocab, seed=2)
        _, grads = backward(p64, sources, targets)
        assert np.all(grads["src_embed"][PAD_ID] == 0.0)
        assert np.all(grads["trg_embed"][PAD_ID] == 0.0)
        # a longer example pads the others further without changing their share
        longer_src = np.full(9, src_vocab.id("a"))
        longer_trg = np.full(8, trg_vocab.id("x"))
        _, with_longer = backward(p64, sources + [longer_src], targets + [longer_trg])
        _, longer_alone = backward(p64, [longer_src], [longer_trg])
        n = len(sources)
        others = {name: ((n + 1) * with_longer[name] - longer_alone[name]) / n for name in grads}
        assert max_abs_diff(others, grads) < 1e-10

    def test_encode_equals_unpadded_rows_of_batch(self):
        params, src_vocab, trg_vocab = tiny_model(seed=10)
        sources, _ = mixed_batch(src_vocab, trg_vocab, seed=3)
        src_ids, src_mask = _source_batch(params, sources)
        states, _ = _encode(params, src_ids, src_mask)
        for row, ids in enumerate(sources):
            assert np.allclose(states[row, : ids.size], encode(params, ids), rtol=0, atol=1e-6)
            assert np.all(states[row, ids.size :] == 0.0)

    def test_single_arrays_are_not_a_batch(self):
        params, src_vocab, trg_vocab = tiny_model()
        with pytest.raises(InputError):
            backward(params, src_vocab.encode(["a", "b"]), trg_vocab.encode(["x", "y"]))
        with pytest.raises(InputError):
            backward(params, [src_vocab.encode(["a"])], [])

    def test_max_target_len_counts_eos(self):
        # the cap includes <eos>, as in train and beam_search
        params, src_vocab, trg_vocab = tiny_model(max_target_len=3)
        src = src_vocab.encode(["a"])
        backward(params, [src], [trg_vocab.encode(["x", "y"])])
        with pytest.raises(InputError):
            backward(params, [src], [trg_vocab.encode(["x", "y", "z"])])
        with pytest.raises(InputError):
            forward_loss(params, src, trg_vocab.encode(["x", "y", "z"]))


def equal_length_batch(src_vocab, trg_vocab, seed=0):
    rng = np.random.default_rng(seed)
    first = len(RESERVED_TOKENS)
    sources = [rng.integers(first, len(src_vocab), size=4) for _ in range(3)]
    targets = [rng.integers(first, len(trg_vocab), size=3) for _ in range(3)]
    return sources, targets


def use_oracle_recurrences(monkeypatch):
    monkeypatch.setattr(model, "_encode", oracle_encode)
    monkeypatch.setattr(model, "_encode_backward", oracle_encode_backward)
    monkeypatch.setattr(model, "_run_decoder", oracle_run_decoder)
    monkeypatch.setattr(model, "_run_decoder_backward", oracle_run_decoder_backward)


class TestRecurrenceOracle:
    """The stacked, masked recurrence against per-direction loops that keep
    padded rows' state with np.where (tests/oracles.py), in float64."""

    @pytest.mark.parametrize("kind", ["mixed", "equal", "one"])
    def test_states_loss_and_gradients(self, kind, monkeypatch):
        params, src_vocab, trg_vocab = tiny_model(seed=12)
        p64 = params.astype(np.float64)
        if kind == "mixed":  # includes a length-1 source and length-0 and -1 targets
            sources, targets = mixed_batch(src_vocab, trg_vocab, seed=4)
        elif kind == "equal":
            sources, targets = equal_length_batch(src_vocab, trg_vocab, seed=5)
        else:
            sources, targets = mixed_batch(src_vocab, trg_vocab, seed=6)
            sources, targets = sources[2:3], targets[2:3]
        batch = _source_batch(p64, sources)
        states, _ = _encode(p64, *batch)
        loss, grads = backward(p64, sources, targets)

        use_oracle_recurrences(monkeypatch)
        oracle_states, _ = oracle_encode(p64, *batch)
        oracle_loss, oracle_grads = backward(p64, sources, targets)

        assert np.max(np.abs(states - oracle_states)) <= 1e-12
        assert abs(loss - oracle_loss) <= 1e-12
        for name, g in oracle_grads.items():
            assert np.max(np.abs(grads[name] - g)) <= 1e-10 * np.max(np.abs(g)), name

    def test_encode_and_decode_step_bit_equal(self):
        params, src_vocab, trg_vocab = tiny_model(seed=13)
        p64 = params.astype(np.float64)
        t = p64.tensors
        ids = src_vocab.encode(["a", "c", "b", "e", "d"])
        states = encode(p64, ids)
        oracle_states, _ = oracle_encode(p64, *_source_batch(p64, [ids]))
        assert np.array_equal(states, oracle_states[0])

        start = init_decoder_state(p64, states)
        rng = np.random.default_rng(0)
        rows = DecoderState(
            rng.standard_normal((3, p64.hyper.hidden_dim)), rng.standard_normal((3, p64.hyper.hidden_dim)),
            start.encoder_states, start.enc_proj,
        )
        prev = np.array([BOS_ID, trg_vocab.id("x"), trg_vocab.id("w")])
        state, log_probs, attn = decode_step(p64, rows, prev)
        zx = t["trg_embed"][prev] @ t["dec_Wx"] + t["dec_b"]
        h, c, _ = oracle_lstm_step(zx, t["dec_Wh"], rows.h, rows.c)
        oracle_log_probs, oracle_attn, _ = model._output_layer(p64, h, start.encoder_states, start.enc_proj)
        assert np.array_equal(state.h, h) and np.array_equal(state.c, c)
        assert np.array_equal(log_probs, oracle_log_probs) and np.array_equal(attn, oracle_attn)


class TestStackedModel:
    """A stacked model (decode.as_ensemble) steps every member in one call;
    each member's slice must equal that member's own call, bit for bit."""

    @pytest.mark.parametrize("members", [1, 3])
    def test_stacked_calls_equal_per_member_calls(self, members):
        models = [tiny_model(seed=seed)[0].astype(np.float64) for seed in range(20, 20 + members)]
        _, src_vocab, trg_vocab = tiny_model()
        stack = as_ensemble(models)
        assert stack.flat.shape == (members, models[0].num_params())
        ids = src_vocab.encode(["a", "c", "b", "e", "d"])
        state = init_decoder_state(stack, encode(stack, ids))
        singles = [init_decoder_state(m, encode(m, ids)) for m in models]

        def fields(state):
            return [state.h, state.c, state.encoder_states, state.enc_proj]

        def assert_slices_equal(stacked, per_member):
            for m, arrays in enumerate(per_member):
                assert [a[m].tobytes() for a in stacked] == [a.tobytes() for a in arrays]

        assert_slices_equal(fields(state), [fields(s) for s in singles])
        # the first step has one row (a gemv in BLAS), the next three
        for rows, prev in (([0], [BOS_ID]), ([0, 0, 0], [trg_vocab.id("x"), EOS_ID, trg_vocab.id("w")])):
            state = DecoderState(state.h[:, rows], state.c[:, rows], state.encoder_states, state.enc_proj)
            singles = [DecoderState(s.h[rows], s.c[rows], s.encoder_states, s.enc_proj) for s in singles]
            state, log_probs, attn = decode_step(stack, state, np.array(prev))
            outputs = [decode_step(m, s, np.array(prev)) for m, s in zip(models, singles)]
            singles = [s for s, _, _ in outputs]
            assert log_probs.shape == (members, len(rows), len(trg_vocab)) and attn.shape == (members, len(rows), 5)
            assert_slices_equal(fields(state) + [log_probs, attn], [fields(s) + [lp, a] for s, lp, a in outputs])


    @pytest.mark.parametrize("members", [1, 4])
    def test_encode_equals_the_rows_of_a_padded_batch(self, members):
        # encode is _encode on a batch of one.  One-row products go through BLAS's gemv and
        # several rows through gemm, which sums in another order, so a source equals its row
        # of a one-row batch bit for bit when it has 2 tokens or more, and its row of a
        # several-row batch to rounding.
        stack = as_ensemble([tiny_model(seed=seed)[0] for seed in range(30, 30 + members)])
        rng = np.random.default_rng(members)
        sources = [rng.integers(len(RESERVED_TOKENS), len(stack.src_vocab), size=n) for n in (2, 5, 3, 9)]
        for ids in sources:
            single = encode(stack, ids)
            assert single.shape == (members, len(ids), 2 * stack.hyper.hidden_dim)
            padded = np.concatenate([ids, np.full(4, PAD_ID)])[None]
            states, _ = _encode(stack, padded, np.arange(padded.shape[1])[None] < len(ids))
            assert states[:, 0, : len(ids)].tobytes() == single.tobytes()
            assert np.all(states[:, 0, len(ids) :] == 0.0)
        states, _ = _encode(stack, *_source_batch(stack, sources))
        for row, ids in enumerate(sources):
            assert np.allclose(states[:, row, : len(ids)], encode(stack, ids), rtol=0, atol=1e-14)
            assert np.all(states[:, row, len(ids) :] == 0.0)


def copy_corpus(n_units=20, seed=0):
    rng = np.random.default_rng(seed)
    alphabet = list("abcde")
    units = []
    for i in range(n_units):
        toks = tuple(rng.choice(alphabet, size=rng.integers(1, 6)))
        units.append(TranslationUnit(toks, toks, "copy", i))
    return extend_corpus(units, ContextConfig(0, 0, Marking.BREAK))


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        examples = copy_corpus()
        vocab = Vocabulary.build([e.source_tokens for e in examples])
        hp = HyperParams(embed_dim=8, hidden_dim=8, attention_dim=8, epochs=0, rng_seed=1)
        params = init_params(hp, vocab, vocab)
        before = {k: v.copy() for k, v in params.tensors.items()}
        result = train(params, examples)
        assert len(result.checkpoints) == 1
        assert result.checkpoints[0].step == 0
        for name, tensor in result.checkpoints[0].params.tensors.items():
            assert np.array_equal(tensor, before[name])

    def test_deterministic_checkpoints(self):
        examples = copy_corpus()
        vocab = Vocabulary.build([e.source_tokens for e in examples])
        hp = HyperParams(embed_dim=8, hidden_dim=10, attention_dim=8, epochs=2, batch_size=4, rng_seed=3)
        results = []
        for _ in range(2):
            params = init_params(hp, vocab, vocab)
            results.append(train(params, examples, savepoint_schedule=2))
        assert [c.step for c in results[0].checkpoints] == [c.step for c in results[1].checkpoints]
        for c1, c2 in zip(results[0].checkpoints, results[1].checkpoints):
            for name in c1.params.tensors:
                assert np.array_equal(c1.params.tensors[name], c2.params.tensors[name])
        assert results[0].losses == results[1].losses

    def test_loss_trend_on_copy_task(self):
        examples = copy_corpus(n_units=20, seed=4)
        vocab = Vocabulary.build([e.source_tokens for e in examples])
        hp = HyperParams(
            embed_dim=12, hidden_dim=16, attention_dim=12, learning_rate=0.005,
            epochs=8, batch_size=4, rng_seed=5,
        )
        params = init_params(hp, vocab, vocab)
        result = train(params, examples)
        assert result.loss_decreased()
        steps_per_epoch = len(result.losses) // hp.epochs
        epoch_means = [
            np.mean(result.losses[i * steps_per_epoch : (i + 1) * steps_per_epoch])
            for i in range(hp.epochs)
        ]
        increases = sum(1 for a, b in zip(epoch_means, epoch_means[1:]) if b > a + 1e-9)
        assert increases <= 1

    def test_savepoint_schedule(self):
        examples = copy_corpus()
        vocab = Vocabulary.build([e.source_tokens for e in examples])
        hp = HyperParams(embed_dim=8, hidden_dim=8, attention_dim=8, epochs=2, batch_size=5, rng_seed=1)
        params = init_params(hp, vocab, vocab)
        result = train(params, examples, savepoint_schedule=4)
        assert len(result.checkpoints) == 4
        total_steps = 2 * ((len(examples) + 4) // 5)
        assert result.checkpoints[-1].step == total_steps
        for savepoints in (0, -3):  # would train and save nothing
            with pytest.raises(ConfigError, match="savepoints"):
                train(params, examples, savepoint_schedule=savepoints)


class TestFlatLayout:
    """Named tensors, gradients and checkpoints all read one flat vector."""

    def test_write_through_view_reaches_flat_and_checkpoint(self, tmp_path):
        params, _, _ = tiny_model(seed=9)
        params.tensors["attn_v"][2] = 7.5
        assert np.array_equal(params.flat, np.concatenate([t.ravel() for t in params.tensors.values()]))
        assert np.count_nonzero(params.flat == 7.5) == 1
        save_checkpoint(params, tmp_path / "model.ckpt")
        assert load_checkpoint(tmp_path / "model.ckpt").tensors["attn_v"][2] == 7.5

    def test_copy_and_astype_share_no_memory(self):
        params, _, _ = tiny_model(seed=9)
        for other in (params.copy(), params.astype(np.float64)):
            assert not np.shares_memory(other.flat, params.flat)
            assert np.array_equal(other.flat, params.flat)
            other.tensors["out_b"][0] = 99.0
            assert params.tensors["out_b"][0] != 99.0

    def test_gradients_are_views_of_one_vector(self):
        params, src_vocab, trg_vocab = tiny_model(seed=9)
        _, grads = backward(params, [src_vocab.encode(["a", "b"])], [trg_vocab.encode(["x"])])
        assert list(grads) == list(params.tensors)
        assert grads.flat.shape == params.flat.shape
        offset = 0
        for name, g in grads.items():
            assert g.shape == params.tensors[name].shape and g.base is grads.flat
            assert np.array_equal(g.ravel(), grads.flat[offset : offset + g.size])
            offset += g.size
        assert offset == grads.flat.size


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        params, _, _ = tiny_model(seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.hyper == params.hyper
        assert loaded.src_vocab.tokens == params.src_vocab.tokens
        assert loaded.trg_vocab.tokens == params.trg_vocab.tokens
        for name, tensor in params.tensors.items():
            assert np.array_equal(loaded.tensors[name], tensor)

    def test_byte_stable(self, tmp_path):
        params, _, _ = tiny_model(seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(params.copy(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_peaks_at_its_vector_and_header(self):
        # the weights are read straight into their float32 vector: no copy of the file's bytes;
        # beside the vector and the parsed header the peak holds check_finite's isfinite mask
        path = Path(__file__).resolve().parent.parent / "perfbench" / "models" / "checkpoint-000100.ckpt"
        header_len = int.from_bytes(path.read_bytes()[4:8], "little")
        load_checkpoint(path)  # warm the import-time caches outside the measurement
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            params = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.flat.dtype == np.float32 and params.flat.nbytes == 4 * 31968
        assert peak - start <= params.flat.nbytes + params.flat.size + header_len + 32 * 1024

    def test_size_is_checked_before_the_vector_is_allocated(self, tmp_path):
        # a consistent header that describes about 61 GB of weights, in a file of a few hundred bytes
        _, src_vocab, trg_vocab = tiny_model(seed=9)
        hp = HyperParams(embed_dim=6, hidden_dim=30000, attention_dim=5)
        specs = model._tensor_specs(hp, len(src_vocab), len(trg_vocab))
        header = {"format_version": 1, "hyperparams": vars(hp), "source_vocab": src_vocab.tokens,
                  "target_vocab": trg_vocab.tokens, "tensors": [{"name": n, "shape": s} for n, s in specs]}
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"CNMT" + len(blob).to_bytes(4, "little") + blob + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="header describes"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
