"""Encoder tests: masking semantics, echo expansion, checkpoints."""

import re

import numpy as np
import pytest

from csplade import autodiff as ad
from csplade.autodiff import ShapeError
from csplade.encoder import (BOS_ID, EOS_ID, PAD_ID, SEP_ID, VARIANTS,
                             EncoderConfig, EncoderModel, SequenceTooLongError,
                             TokenSequence, echo_expand)


def make_model(variant="causal", seed=0, vocab_size=20, **kw):
    cfg = EncoderConfig(vocab_size=vocab_size, d_model=16, n_layers=1,
                        n_heads=2, max_seq_len=16, variant=variant,
                        seed=seed, **kw)
    return EncoderModel(cfg)


class TestConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_vocab_reserves_specials(self):
        with pytest.raises(ValueError, match="vocab_size"):
            EncoderConfig(vocab_size=3)

    @pytest.mark.parametrize("variant", ["bidirectional", "causal+echo", "diagonal"])
    def test_unknown_variant(self, variant):
        with pytest.raises(ValueError, match=re.escape(f"unknown variant '{variant}'")):
            EncoderConfig(vocab_size=10, variant=variant)

    def test_config_text_round_trip(self):
        for variant in VARIANTS:
            cfg = EncoderConfig(vocab_size=33, d_model=8, n_layers=3, n_heads=2,
                                max_seq_len=24, variant=variant, seed=9)
            assert f"\nvariant={variant}\n" in cfg.to_text()
            assert EncoderConfig.from_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize("key", ["vocab_size", "variant", "seed"])
    def test_missing_key_named(self, key):
        text = "".join(line + "\n" for line in EncoderConfig(vocab_size=33).to_text().splitlines()
                       if not line.startswith(key + "="))
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            EncoderConfig.from_text(text)

    def test_unknown_key_rejected(self):
        text = EncoderConfig(vocab_size=33).to_text() + "dropout=0.1\n"
        with pytest.raises(ValueError, match="unknown key 'dropout'"):
            EncoderConfig.from_text(text)

    def test_non_integer_value_named(self):
        text = EncoderConfig(vocab_size=33).to_text().replace("d_model=64", "d_model=6.4")
        with pytest.raises(ValueError, match="config d_model='6.4' is not an integer"):
            EncoderConfig.from_text(text)


class TestForward:
    def test_single_token_shape(self):
        for variant in ("causal", "bi"):
            m = make_model(variant)
            logits = m.forward_logits(TokenSequence([BOS_ID], span=(0, 1)))
            assert logits.shape == (20, 1)

    def test_sequence_too_long(self):
        m = make_model()
        ids = np.full(17, BOS_ID)
        with pytest.raises(SequenceTooLongError):
            m.forward_logits(TokenSequence(ids, span=(0, 17)))

    def test_causal_information_barrier_exact(self):
        """Perturbing token j leaves every logit column < j bit-identical."""
        for seed in range(5):
            m = make_model("causal", seed=seed)
            ids = np.array([BOS_ID, 5, 6, 7, EOS_ID])
            base = m.forward_logits(TokenSequence(ids, span=(1, 5)))
            for j in range(1, len(ids)):
                mutated = ids.copy()
                mutated[j] = 9 if ids[j] != 9 else 10
                out = m.forward_logits(TokenSequence(mutated, span=(1, 5)))
                np.testing.assert_array_equal(base[:, :j], out[:, :j])

    def test_bidirectional_sees_later_tokens(self):
        """Over >= 10 random models, a late perturbation changes early logits."""
        hits = 0
        for seed in range(10):
            m = make_model("bi", seed=seed)
            ids = np.array([BOS_ID, 5, 6, 7, EOS_ID])
            base = m.forward_logits(TokenSequence(ids, span=(1, 5)))
            mutated = ids.copy()
            mutated[3] = 11
            out = m.forward_logits(TokenSequence(mutated, span=(1, 5)))
            if not np.array_equal(base[:, :3], out[:, :3]):
                hits += 1
        assert hits == 10

    def test_padding_never_contributes(self):
        """A padded batch row equals the unpadded single forward."""
        for variant in ("causal", "bi"):
            m = make_model(variant)
            ids = np.array([BOS_ID, 5, 6, EOS_ID])
            single = m.forward_batch(ids[None, :], np.array([4])).data[0]
            padded = np.concatenate([ids, [PAD_ID, PAD_ID]])
            batch = np.stack([padded, np.full(6, BOS_ID)])
            out = m.forward_batch(batch, np.array([4, 6])).data[0, :4]
            np.testing.assert_allclose(out, single, atol=1e-6)

    def test_tied_lm_head(self):
        """Perturbing one embedding row shifts exactly that logit row."""
        m = make_model("bi")
        seq = TokenSequence([BOS_ID, 5, EOS_ID], span=(1, 3))
        base = m.forward_logits(seq)
        # token 7 is unused by the input, so only its LM-head column moves;
        # perturb one coordinate (a whole-row constant shift cancels because
        # the final hidden states are layer-normalized to zero mean)
        m.params["tok_emb"].data[7, 3] += 0.5
        out = m.forward_logits(seq)
        assert not np.allclose(base[7], out[7])
        np.testing.assert_array_equal(np.delete(base, 7, axis=0),
                                      np.delete(out, 7, axis=0))

    def test_logit_offset_is_constant_shift(self):
        m = make_model()
        seq = TokenSequence([BOS_ID, 5, EOS_ID], span=(1, 3))
        base = m.forward_logits(seq)
        m.apply_logit_offset(-5.0)
        np.testing.assert_allclose(m.forward_logits(seq), base - 5.0, atol=1e-5)

    def test_determinism_across_constructions(self):
        a, b = make_model(seed=4), make_model(seed=4)
        seq = TokenSequence([BOS_ID, 5, 6, EOS_ID], span=(1, 4))
        np.testing.assert_array_equal(a.forward_logits(seq), b.forward_logits(seq))


def _perturbed_model(variant, dtype):
    """Two layers, every parameter perturbed off its init (gains of one and
    zero biases would hide half the arithmetic), in float32 or float64."""
    cfg = EncoderConfig(vocab_size=20, d_model=16, n_layers=2, n_heads=2,
                        max_seq_len=16, variant=variant, seed=1)
    m = EncoderModel(cfg)
    rng = np.random.default_rng(7)
    for p in m.params.values():
        p.data = (p.data + rng.normal(0.0, 0.2, p.data.shape)).astype(dtype)
    return m


def _batches(variant, rng):
    """(ids, lengths) batches: every length one at a time, then all of them
    padded into one batch, then every fifth length padded together."""
    if variant == "echo":
        seqs = [echo_expand(TokenSequence([BOS_ID, *range(4, 4 + n), EOS_ID], span=(1, n + 2)), 16)
                for n in range(1, 7)]                     # lengths 5, 7, ..., 15
    else:
        seqs = [TokenSequence(rng.integers(4, 20, size=n), span=(0, n)) for n in range(1, 17)]
    out = []
    for group in [[s] for s in seqs] + [seqs] + [seqs[i::5] for i in range(5)]:
        l = max(s.length for s in group)
        ids = np.full((len(group), l), PAD_ID)
        for i, s in enumerate(group):
            ids[i, :s.length] = s.ids
        out.append((ids, np.array([s.length for s in group])))
    return out


class TestInferencePath:
    """Without a graph to record, forward_batch runs on plain arrays; its
    logits must be the graph path's bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_grad_bit_equal_to_graph(self, variant, dtype):
        m = _perturbed_model(variant, dtype)
        for ids, lengths in _batches(variant, np.random.default_rng(3)):
            graph = m.forward_batch(ids, lengths)
            assert graph.requires_grad
            with ad.no_grad():
                plain = m.forward_batch(ids, lengths)
            assert not plain.requires_grad and plain._backward is None
            assert plain.dtype == graph.dtype == dtype
            assert plain.shape == graph.shape == ids.shape + (20,)
            assert plain.data.tobytes() == graph.data.tobytes(), (variant, lengths)

    def test_untracked_parameters_take_the_plain_path(self, monkeypatch):
        """No parameter requiring grad also records no graph."""
        m = _perturbed_model("causal", np.float32)
        ids, lengths = np.array([[BOS_ID, 5, 6, EOS_ID]]), np.array([4])
        graph = m.forward_batch(ids, lengths).data
        for p in m.params.values():
            p.requires_grad = False
        monkeypatch.setattr(ad, "attention", None)  # the graph path would call it
        assert m.forward_batch(ids, lengths).data.tobytes() == graph.tobytes()

    @pytest.mark.parametrize("ids, lengths, error, match", [
        (np.full((1, 17), BOS_ID), [17], SequenceTooLongError, "exceeds max_seq_len 16"),
        (np.array([[BOS_ID, -1, EOS_ID]]), [3], ShapeError, "ids out of range"),
        (np.array([[BOS_ID, 20, EOS_ID]]), [3], ShapeError, "ids out of range"),
        (np.array([[BOS_ID, 5, EOS_ID], [BOS_ID, -3, PAD_ID]]), [3, 2], ShapeError,
         "ids out of range"),
    ])
    @pytest.mark.parametrize("variant", ["causal", "bi"], ids=["causal", "bidirectional"])
    def test_both_paths_raise_the_same_error(self, variant, ids, lengths, error, match):
        m = _perturbed_model(variant, np.float32)
        with pytest.raises(error, match=match) as graph:
            m.forward_batch(ids, np.array(lengths))
        with pytest.raises(error, match=match) as plain, ad.no_grad():
            m.forward_batch(ids, np.array(lengths))
        assert str(plain.value) == str(graph.value)


class TestEchoExpand:
    def test_two_token_example(self):
        seq = TokenSequence([BOS_ID, 5, 6, EOS_ID], span=(1, 4))
        out = echo_expand(seq, max_seq_len=16)
        np.testing.assert_array_equal(
            out.ids, [BOS_ID, 5, 6, SEP_ID, 5, 6, EOS_ID])
        assert out.span == (4, 6)  # second occurrence only, EOS excluded

    def test_empty_content_rejected(self):
        with pytest.raises(ValueError, match="no content"):
            echo_expand(TokenSequence([BOS_ID, EOS_ID], span=(1, 2)), 16)

    def test_exact_fit_boundary(self):
        n = (16 - 3) // 2  # 6 content tokens -> 15 total
        ids = [BOS_ID] + list(range(4, 4 + n)) + [EOS_ID]
        out = echo_expand(TokenSequence(ids, span=(1, len(ids))), 16)
        assert out.length == 2 * n + 3

    def test_over_budget_rejected(self):
        ids = [BOS_ID] + list(range(4, 4 + 7)) + [EOS_ID]
        with pytest.raises(SequenceTooLongError):
            echo_expand(TokenSequence(ids, span=(1, len(ids))), 16)

    def test_echo_span_sees_late_tokens_under_causal_mask(self):
        """Pooled-span columns of an early token react to a late token."""
        hits = 0
        for seed in range(10):
            m = make_model("causal", seed=seed)
            base_seq = echo_expand(TokenSequence([BOS_ID, 5, 6, 7, EOS_ID], span=(1, 5)), 16)
            pert_seq = echo_expand(TokenSequence([BOS_ID, 5, 6, 11, EOS_ID], span=(1, 5)), 16)
            s, _ = base_seq.span
            base = m.forward_logits(base_seq)[:, s]   # first content position
            out = m.forward_logits(pert_seq)[:, s]
            if not np.array_equal(base, out):
                hits += 1
        assert hits == 10


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = make_model("bi", seed=7)
        path = tmp_path / "m.ckpt"
        m.save(path)
        loaded = EncoderModel.load(path)
        assert loaded.cfg == m.cfg
        for name, p in m.params.items():
            np.testing.assert_array_equal(p.data, loaded.params[name].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE\n")
        with pytest.raises(ValueError, match="magic"):
            EncoderModel.load(path)

    def test_unterminated_config_block(self, tmp_path):
        path = tmp_path / "head.ckpt"
        path.write_bytes(b"CSPL1\nvocab_size=5\n")
        with pytest.raises(ValueError, match=r"unterminated config block .*head\.ckpt"):
            EncoderModel.load(path)

    def test_two_field_mode_config_rejected(self, tmp_path):
        """A config block that stores the mode as the older mask and echo
        pair is not translated: loading names the missing variant key."""
        path = tmp_path / "old.ckpt"
        make_model("bi").save(path)
        blob = path.read_bytes()
        assert b"\nvariant=bi\n" in blob
        path.write_bytes(blob.replace(b"\nvariant=bi\n",
                                      b"\nmask_mode=bidirectional\necho_mode=False\n", 1))
        with pytest.raises(ValueError, match="missing key 'variant'"):
            EncoderModel.load(path)

    def test_truncation_detected(self, tmp_path):
        m = make_model()
        path = tmp_path / "m.ckpt"
        m.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            EncoderModel.load(path)

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        make_model(seed=5).save(a)
        make_model(seed=5).save(b)
        assert a.read_bytes() == b.read_bytes()
