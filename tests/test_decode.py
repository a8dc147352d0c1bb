"""Decoder tests: greedy/beam equivalence, ensembling, segment extraction,
attention export format."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ctxnmt.cli import main
from ctxnmt.corpus import ContextConfig, Marking, TranslationUnit, extend_corpus
from ctxnmt.decode import (
    AttentionExport,
    BeamConfig,
    SEGMENT_ALL,
    SEGMENT_LAST,
    _member_mean,
    as_ensemble,
    beam_decode,
    beam_search,
    extract_scored_segment,
    greedy_decode,
    read_attention_records,
    write_attention_records,
)
from ctxnmt.errors import ConfigError, NumericError
from ctxnmt.model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    HyperParams,
    ModelParams,
    Vocabulary,
    decode_step,
    encode,
    init_decoder_state,
    init_params,
    load_checkpoint,
    train,
)

from attention_checks import assert_attention_rows
from oracles import oracle_beam_decode, oracle_beam_search


@pytest.fixture(scope="module")
def random_model():
    src_vocab = Vocabulary.build([["a", "b", "c", "d", "e", "f"]])
    trg_vocab = Vocabulary.build([["u", "v", "w", "x", "y"]])
    hp = HyperParams(embed_dim=8, hidden_dim=9, attention_dim=7, rng_seed=13)
    return init_params(hp, src_vocab, trg_vocab), src_vocab


@pytest.fixture(scope="module")
def trained_copy_model():
    rng = np.random.default_rng(21)
    alphabet = list("abcdef")
    units = []
    for i in range(40):
        toks = tuple(rng.choice(alphabet, size=rng.integers(1, 7)))
        units.append(TranslationUnit(toks, toks, "copy", i))
    examples = extend_corpus(units, ContextConfig(0, 0, Marking.BREAK))
    vocab = Vocabulary.build([e.source_tokens for e in examples])
    hp = HyperParams(
        embed_dim=16, hidden_dim=24, attention_dim=16, learning_rate=0.005,
        epochs=30, batch_size=5, rng_seed=2,
    )
    params = init_params(hp, vocab, vocab)
    train(params, examples, savepoint_schedule=1)
    return params, vocab, units


class TestDecodeStep:
    def test_batched_rows_equal_single_row_calls(self, random_model):
        params, src_vocab = random_model
        state = init_decoder_state(params, encode(params, src_vocab.encode(["a", "b", "c", "d"])))
        rng = np.random.default_rng(3)
        k = 5
        state.h = state.h[[0] * k] + rng.normal(0, 0.5, size=(k, state.h.shape[1])).astype(state.h.dtype)
        state.c = state.c[[0] * k] + rng.normal(0, 0.5, size=(k, state.c.shape[1])).astype(state.c.dtype)
        prev_ids = np.array([1, 4, 5, 4, 8])
        batched, log_probs, attn = decode_step(params, state, prev_ids)
        assert log_probs.shape == (k, len(params.trg_vocab)) and attn.shape == (k, 4)
        for row in range(k):
            single = init_decoder_state(params, state.encoder_states)
            single.h, single.c = state.h[row : row + 1], state.c[row : row + 1]
            new_single, lp, a = decode_step(params, single, prev_ids[row : row + 1])
            assert np.allclose(lp[0], log_probs[row], rtol=0, atol=1e-6)
            assert np.allclose(a[0], attn[row], rtol=0, atol=1e-6)
            assert np.allclose(new_single.h[0], batched.h[row], rtol=0, atol=1e-6)


class TestGreedy:
    def test_max_len_zero(self, random_model):
        params, src_vocab = random_model
        result = greedy_decode(params, src_vocab.encode(["a", "b"]), max_len=0)
        assert result.target_ids == []
        assert result.weights.shape == (0, 2)

    def test_one_attention_row_per_token(self, random_model):
        params, src_vocab = random_model
        result = greedy_decode(params, src_vocab.encode(["a", "b", "c"]), max_len=12)
        assert result.weights.shape[0] == len(result.target_ids)
        if result.target_ids:
            assert_attention_rows(result.weights, len(result.target_ids), 3)

    def test_trained_copy_model_copies(self, trained_copy_model):
        params, vocab, units = trained_copy_model
        hits = 0
        for unit in units:
            ids = vocab.encode(unit.source_tokens)
            result = greedy_decode(params, ids, max_len=20)
            hits += result.target_ids == list(ids)
        assert hits / len(units) >= 0.95


class TestBeam:
    def test_beam_one_equals_greedy_on_random_inputs(self, random_model):
        params, src_vocab = random_model
        config = BeamConfig(beam_size=1, length_norm_alpha=0.0, coverage_beta=0.0)
        rng = np.random.default_rng(0)
        tokens = ["a", "b", "c", "d", "e", "f"]
        for _ in range(100):
            src = [tokens[i] for i in rng.integers(0, len(tokens), size=rng.integers(1, 7))]
            ids = src_vocab.encode(src)
            greedy = greedy_decode(params, ids, max_len=config.max_len(len(ids)))
            beamed = beam_decode(params, ids, config)
            assert beamed.target_ids == greedy.target_ids

    def test_ensemble_of_one_equals_single(self, random_model):
        params, src_vocab = random_model
        ids = src_vocab.encode(["a", "b", "c"])
        config = BeamConfig(beam_size=4)
        single = beam_decode(params, ids, config)
        wrapped = beam_decode([params], ids, config)
        assert single.target_ids == wrapped.target_ids
        assert np.allclose(single.weights, wrapped.weights)

    def test_ensemble_of_identical_checkpoints_exact(self, random_model):
        params, src_vocab = random_model
        ids = src_vocab.encode(["a", "b", "c", "d"])
        config = BeamConfig(beam_size=3)
        single = beam_decode(params, ids, config)
        double = beam_decode([params, params.copy()], ids, config)
        assert double.target_ids == single.target_ids
        assert double.log_prob == pytest.approx(single.log_prob, abs=1e-9)

    def test_empty_ensemble_rejected(self, random_model):
        _, src_vocab = random_model
        with pytest.raises(ConfigError):
            beam_search([], src_vocab.encode(["a"]), BeamConfig())

    @pytest.mark.parametrize("extra", [[], ["z"]], ids=["reordered", "larger"])
    def test_members_with_other_target_tokens_rejected(self, random_model, extra):
        # members' output distributions are averaged id by id
        params, src_vocab = random_model
        tokens = params.trg_vocab.tokens
        other = init_params(params.hyper, src_vocab, Vocabulary(tokens[:4] + tokens[4:][::-1] + extra))
        with pytest.raises(ConfigError):
            beam_decode([params, other], src_vocab.encode(["a", "b"]), BeamConfig(beam_size=2))

    def test_beam_eight_corpus_logprob_at_least_beam_one(self, trained_copy_model):
        params, vocab, units = trained_copy_model
        total = {1: 0.0, 8: 0.0}
        for unit in units[:15]:
            ids = vocab.encode(unit.source_tokens)
            for size in (1, 8):
                config = BeamConfig(beam_size=size, length_norm_alpha=0.0)
                total[size] += beam_decode(params, ids, config).log_prob
        assert total[8] >= total[1] - 1e-9

    def test_hypothesis_logprob_nonincreasing(self, random_model):
        params, src_vocab = random_model
        ids = src_vocab.encode(["a", "b"])
        config = BeamConfig(beam_size=2)
        result = beam_decode(params, ids, config)
        assert result.log_prob <= 0.0
        assert oracle_beam_search(params, ids, config).log_prob == result.log_prob

    def test_coverage_score_matches_stacked_attention(self, trained_copy_model):
        params, vocab, units = trained_copy_model
        config = BeamConfig(beam_size=4, length_norm_alpha=0.6, coverage_beta=0.3)
        ids = vocab.encode(units[0].source_tokens)
        result = beam_decode(params, ids, config)
        assert result.target_ids
        coverage = np.sum(result.weights, axis=0)
        expected = result.log_prob / len(result.target_ids) ** 0.6 + 0.3 * np.sum(np.log(np.minimum(coverage, 1.0)))
        assert oracle_beam_search(params, ids, config).score(config) == pytest.approx(expected, abs=1e-9)

    def test_reserved_ids_never_emitted(self, random_model):
        params, src_vocab = random_model
        biased = params.copy()
        biased.tensors["out_b"][[PAD_ID, BOS_ID]] = 50.0
        ids = src_vocab.encode(["a", "b", "c"])
        for result in (greedy_decode(biased, ids, max_len=10), beam_decode(biased, ids, BeamConfig(beam_size=3))):
            assert result.target_ids
            assert PAD_ID not in result.target_ids and BOS_ID not in result.target_ids

    def test_non_finite_probabilities_raise(self, random_model):
        params, src_vocab = random_model
        broken = params.copy()
        broken.tensors["out_W"][0, 5] = np.nan
        with pytest.raises(NumericError):
            greedy_decode(broken, src_vocab.encode(["a", "b"]), max_len=5)

    def test_coverage_penalty_changes_score_not_validity(self, trained_copy_model):
        params, vocab, units = trained_copy_model
        ids = vocab.encode(units[0].source_tokens)
        plain = beam_decode(params, ids, BeamConfig(beam_size=4, coverage_beta=0.0))
        covered = beam_decode(params, ids, BeamConfig(beam_size=4, coverage_beta=0.2))
        for result in (plain, covered):
            assert result.weights.shape[0] == len(result.target_ids)


def _perturbed(params, seed):
    """A second ensemble member: params with noise on every tensor."""
    other = params.copy()
    other.flat += np.random.default_rng(seed).normal(0.0, 0.05, size=other.flat.shape).astype(other.flat.dtype)
    return other


def _assert_same_decode(result, expected):
    assert result.target_ids == expected.target_ids
    assert result.weights.shape == expected.weights.shape
    assert result.weights.tobytes() == expected.weights.tobytes()
    assert result.truncated == expected.truncated
    assert result.log_prob == expected.log_prob


class TestBackPointerSearch:
    """The search steps one stacked model and keeps back-pointer nodes, made
    only for the survivors of each cut; the oracle steps the members one at a
    time, copies each hypothesis's lists and re-scores every entry at every
    sort.  Their outputs must be the same bits."""

    @pytest.mark.parametrize("members", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["random", "copy"])
    def test_equals_oracle_bit_for_bit(self, random_model, trained_copy_model, kind, members):
        if kind == "random":
            params, vocab = random_model
            sources = [["a", "b", "c"], ["f", "e", "d", "c", "b", "a", "a"]]
        else:
            params, vocab, units = trained_copy_model
            sources = [units[0].source_tokens, units[1].source_tokens]
        ensemble = [params] + [_perturbed(params, seed) for seed in (5, 6, 7)][: members - 1]
        lengths = [(0.0, 0), (0.0, 2), (BeamConfig.max_len_factor, BeamConfig.max_len_constant)]
        for beam_size in (1, 2, 3, 8, len(params.trg_vocab) + 3):
            for alpha in (0.0, 0.6, 1.0):
                for beta in (0.0, 0.3):
                    for factor, constant in lengths:
                        config = BeamConfig(beam_size, factor, constant, alpha, beta)
                        for tokens in sources:
                            ids = vocab.encode(tokens)
                            _assert_same_decode(beam_decode(ensemble, ids, config),
                                                oracle_beam_decode(ensemble, ids, config))

    @pytest.mark.parametrize("beam_size", [1, 4])
    def test_tied_ids_keep_the_lower_id_first(self, random_model, beam_size):
        params, src_vocab = random_model
        low, high = params.trg_vocab.id("v"), params.trg_vocab.id("x")
        assert EOS_ID < low < high
        tied = params.copy()
        t = tied.tensors
        t["out_W"][:, high] = t["out_W"][:, low]
        t["out_b"][[low, high]] = 3.0
        ids = src_vocab.encode(["a", "b", "c"])
        tied64 = tied.astype(np.float64)
        _, log_probs, _ = decode_step(tied64, init_decoder_state(tied64, encode(tied64, ids)), np.array([BOS_ID]))
        assert log_probs[0, low] == log_probs[0, high] == log_probs[0].max()
        one_step = BeamConfig(beam_size=beam_size, max_len_factor=0.0, max_len_constant=1)
        assert beam_decode(tied, ids, one_step).target_ids == [low]
        for config in (one_step, BeamConfig(beam_size=beam_size)):
            _assert_same_decode(beam_decode(tied, ids, config), oracle_beam_decode(tied, ids, config))


def test_four_savepoints_at_beam_eight_equal_the_oracle(tmp_path):
    # the ensemble-beam benchmark's configuration: its 4 fixed checkpoints, beam 8, alpha 0.6, 2+2 inputs
    checkpoints = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "models").glob("*.ckpt"))
    assert len(checkpoints) == 4
    d = str(tmp_path)
    assert main(["synth", "--num-docs", "2", "--units-per-doc", "8", "--seed", "11", "--out", d]) == 0
    assert main(["prepare", "--source", d + "/synth.src", "--target", d + "/synth.trg", "--docs", d + "/synth.docs",
                 "--mode", "2+2", "--prefix", "ext", "--out", d]) == 0
    assert main(["translate", "--source", d + "/ext.src", "--meta", d + "/ext.meta", "--beam-size", "8",
                 "--alpha", "0.6", "--out", d] + [a for c in checkpoints for a in ("--checkpoint", str(c))]) == 0
    members = [load_checkpoint(c) for c in checkpoints]
    stack = as_ensemble(members)
    config = BeamConfig(beam_size=8, length_norm_alpha=0.6)
    exports = read_attention_records(tmp_path / "hyp.attn.jsonl")
    assert len(exports) == 16
    for export in exports:
        ids = stack.src_vocab.encode(export.source_tokens)
        expected = oracle_beam_decode(members, ids, config)
        assert export.target_tokens == expected.target_tokens(stack)
        assert export.weights.tobytes() == expected.weights.tobytes()
        assert beam_decode(stack, ids, config).log_prob == expected.log_prob


class TestPreparedEnsemble:
    """as_ensemble's stack is read-only and carries its gate-scaled weights;
    a model with one flat vector keeps nothing between calls."""

    @pytest.mark.parametrize("shape", [(2, 8, 40), (4, 1, 32), (4, 8, 1), (8, 1, 1), (9, 3, 1), (5, 1, 7)])
    def test_member_mean_sums_in_member_order(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        for _ in range(50):
            x = np.exp(rng.uniform(math.log(1e-300), 0.0, size=shape))
            total = x[0].copy()
            for member in x[1:]:
                total = total + member
            assert _member_mean(x).tobytes() == (total / len(x)).tobytes()

    def test_member_mean_of_eight_single_values_is_not_pairwise(self):
        # numpy's pairwise sum over the member axis would give (1 + 7e-16) / 8
        x = np.array([1.0] + [1e-16] * 7).reshape(8, 1, 1)
        assert _member_mean(x)[0, 0] == 1.0 / 8

    def test_stack_and_its_scaled_weights_are_read_only(self, random_model):
        params, _ = random_model
        stack = as_ensemble([params, params])
        assert stack.scaled is not None
        for array in [stack.flat, *stack.tensors.values(), *stack.scaled]:
            with pytest.raises(ValueError):
                array[...] = 0.0
        assert params.scaled is None and params.flat.flags.writeable

    def test_a_trained_model_decodes_as_a_fresh_copy(self, random_model):
        params, src_vocab = random_model
        params = ModelParams(replace(params.hyper, epochs=1), params.src_vocab, params.trg_vocab, params.flat.copy())
        ids = src_vocab.encode(["a", "b", "c", "d"])
        config = BeamConfig(beam_size=3)
        before = beam_decode(params, ids, config)
        _, log_probs, _ = decode_step(params, init_decoder_state(params, encode(params, ids)), np.array([BOS_ID]))
        units = [TranslationUnit(("a", "b"), ("u", "v"), "d", 0), TranslationUnit(("c",), ("w",), "d", 1)]
        assert len(train(params, extend_corpus(units, ContextConfig(0, 0, Marking.BREAK))).losses) == 1
        fresh = params.copy()
        assert params.scaled is None
        after = beam_decode(params, ids, config)
        _assert_same_decode(after, beam_decode(fresh, ids, config))
        assert after.log_prob != before.log_prob
        again = decode_step(params, init_decoder_state(params, encode(params, ids)), np.array([BOS_ID]))
        expected = decode_step(fresh, init_decoder_state(fresh, encode(fresh, ids)), np.array([BOS_ID]))
        for got, want in zip(again[1:], expected[1:]):
            assert got.tobytes() == want.tobytes()
        assert again[1].tobytes() != log_probs.tobytes()

    def test_loading_members_keeps_one_member_beside_the_stack(self):
        # translate allocates the stack at the first member and copies each member in as it
        # loads; holding every loaded member until the end would exceed this bound
        checkpoints = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "models").glob("*.ckpt"))
        load_checkpoint(checkpoints[0])  # warm the import-time caches outside the measurement
        tracemalloc.start()
        try:
            member = load_checkpoint(checkpoints[0])
            _, one_member = tracemalloc.get_traced_memory()
            del member
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            stack = as_ensemble((load_checkpoint(c) for c in checkpoints), len(checkpoints))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stack.flat.shape[0] == len(checkpoints) == 4
        assert peak - start <= stack.flat.nbytes + sum(w.nbytes for w in stack.scaled) + one_member

    def test_member_count_must_match(self, random_model):
        params, _ = random_model
        for members, size in (([params] * 3, 2), ([params] * 2, 3)):
            with pytest.raises(ConfigError):
                as_ensemble(iter(members), size)


class TestSegmentExtraction:
    TOKENS = ["look", ",", "Bob", "!", "_BREAK_", "-", "Where", "are", "they", "?"]

    def test_last(self):
        assert extract_scored_segment(self.TOKENS, SEGMENT_LAST) == ["-", "Where", "are", "they", "?"]

    def test_all(self):
        out = extract_scored_segment(self.TOKENS, SEGMENT_ALL)
        assert out == ["look", ",", "Bob", "!", "-", "Where", "are", "they", "?"]
        assert len(out) == 9

    def test_no_break_identity(self):
        assert extract_scored_segment(["a", "b"], SEGMENT_LAST) == ["a", "b"]

    def test_multiple_breaks_last_segment(self):
        assert extract_scored_segment(["a", "_BREAK_", "b", "_BREAK_", "c"], SEGMENT_LAST) == ["c"]


class TestAttentionExportFile:
    def test_round_trip(self, tmp_path):
        exports = [
            AttentionExport(
                index=0,
                doc_id="m1",
                index_in_doc=1,
                source_tokens=["sieh", "_BREAK_", "-Wo"],
                target_tokens=["look", "_BREAK_", "-"],
                weights=np.array([[0.5, 0.2, 0.3], [0.1, 0.8, 0.1], [0.25, 0.5, 0.25]]),
                source_focus_start=2,
            )
        ]
        path = tmp_path / "attn.jsonl"
        write_attention_records(path, exports)
        loaded = read_attention_records(path)
        assert len(loaded) == 1
        assert loaded[0].source_tokens == exports[0].source_tokens
        assert loaded[0].target_tokens == exports[0].target_tokens
        assert np.allclose(loaded[0].weights, exports[0].weights)
        assert loaded[0].source_focus_start == 2
        assert loaded[0].break_token == "_BREAK_"
