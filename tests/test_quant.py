"""Weight-quantization math, parameter bytes and the dequantized model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csplade.corpus import build_vocab, tokenize
from csplade.encoder import EncoderConfig, EncoderModel
from csplade.quant import (GROUPWISE, PER_CHANNEL, QuantConfig, _dequantize_array,
                           _quantize_array, quantize_weights)


def model_and_seq(seed=0):
    vocab = build_vocab(["alpha beta gamma delta epsilon"])
    cfg = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1,
                        n_heads=2, max_seq_len=16, variant="bi", seed=seed)
    return EncoderModel(cfg), tokenize("alpha beta gamma", vocab)


class TestQuantConfig:
    def test_bits_validation(self):
        with pytest.raises(ValueError, match="bits"):
            QuantConfig(bits=16)

    def test_granularity_validation(self):
        with pytest.raises(ValueError, match="granularity"):
            QuantConfig(granularity="per-sample")

    @pytest.mark.parametrize("group_size", [0, -32])
    def test_group_size_below_one_rejected(self, group_size):
        with pytest.raises(ValueError, match=f"group_size must be >= 1, got {group_size}"):
            QuantConfig(bits=4, granularity=GROUPWISE, group_size=group_size)

    def test_group_size_must_divide(self):
        w = np.ones((4, 10), dtype=np.float32)
        with pytest.raises(ValueError, match="group_size"):
            _quantize_array(w, QuantConfig(bits=4, granularity=GROUPWISE, group_size=32))


class TestQuantizeArray:
    def test_representable_points_exact(self):
        scale = 0.05
        w = (scale * np.arange(-127, 128, dtype=np.float32)).reshape(1, -1)
        codes, scales = _quantize_array(w, QuantConfig(bits=8, granularity=PER_CHANNEL))
        np.testing.assert_allclose(_dequantize_array(codes, scales, w.shape), w,
                                   atol=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_per_channel_error_bound(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(6, 32)).astype(np.float32)
        cfg = QuantConfig(bits=8, granularity=PER_CHANNEL)
        codes, scales = _quantize_array(w, cfg)
        err = np.abs(_dequantize_array(codes, scales, w.shape) - w)
        bound = scales.reshape(-1, 1) / 2 + 1e-7
        assert (err <= bound).all()

    def test_idempotence(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 32)).astype(np.float32)
        cfg = QuantConfig(bits=4, granularity=GROUPWISE)
        codes, scales = _quantize_array(w, cfg)
        deq = _dequantize_array(codes, scales, w.shape)
        codes2, scales2 = _quantize_array(deq, cfg)
        np.testing.assert_array_equal(
            _dequantize_array(codes2, scales2, w.shape), deq)

    def test_all_zero_group_scale_one(self):
        codes, scales = _quantize_array(np.zeros((2, 32), dtype=np.float32),
                                        QuantConfig(bits=4, granularity=GROUPWISE))
        assert (scales == 1.0).all() and (codes == 0).all()

    @pytest.mark.parametrize("shape", [(3, 5), (1, 1), (4, 32)])
    def test_int4_codes_two_to_a_byte(self, shape):
        rng = np.random.default_rng(sum(shape))
        w = rng.normal(size=shape).astype(np.float32)
        cfg = QuantConfig(bits=4, granularity=PER_CHANNEL)
        codes, scales = _quantize_array(w, cfg)
        assert codes.dtype == np.uint8 and codes.nbytes == -(-w.size // 2)
        # the same codes unpacked: round(w / scale) clipped to [-7, 7]
        want = np.clip(np.round(w / scales), -7, 7).astype(np.float32) * scales
        np.testing.assert_array_equal(_dequantize_array(codes, scales, shape), want)

    def test_zero_weights_quantize_to_zero(self):
        w = np.array([[0.0, 1.0, -1.0, 0.0]], dtype=np.float32)
        codes, _ = _quantize_array(w, QuantConfig(bits=8, granularity=PER_CHANNEL))
        assert codes[0, 0] == 0 and codes[0, 3] == 0


class TestQuantizedModel:
    def test_one_d_params_stay_fp32(self):
        model, _ = model_and_seq()
        qm = quantize_weights(model, QuantConfig(bits=8, granularity=PER_CHANNEL))
        assert "lnf_g" in qm.fp_params and "logit_bias" in qm.fp_params
        assert "tok_emb" in qm.blocks
        np.testing.assert_array_equal(qm.fp_params["lnf_g"],
                                      model.params["lnf_g"].data)

    def test_param_bytes_smaller_than_fp32(self):
        model, _ = model_and_seq()
        fp32 = sum(p.data.size * 4 for p in model.params.values())
        q8 = quantize_weights(model, QuantConfig(bits=8, granularity=PER_CHANNEL))
        q4 = quantize_weights(model, QuantConfig(bits=4, granularity=GROUPWISE,
                                                 group_size=16))
        assert q4.param_bytes() < q8.param_bytes() < fp32

    @pytest.mark.parametrize("qcfg", [
        QuantConfig(bits=8, granularity=PER_CHANNEL),
        QuantConfig(bits=4, granularity=GROUPWISE, group_size=16),
        QuantConfig(bits=4, granularity=PER_CHANNEL),
    ])
    def test_param_bytes_is_what_the_model_holds(self, qcfg):
        model, _ = model_and_seq()
        qm = quantize_weights(model, qcfg)
        held = sum(codes.nbytes + scales.nbytes for codes, scales, _ in qm.blocks.values()) \
            + sum(arr.nbytes for arr in qm.fp_params.values())
        assert qm.param_bytes() == held
        per_code = {8: 1, 4: 0.5}[qcfg.bits]
        weights = [p.data.size for p in model.params.values() if p.data.ndim >= 2]
        assert sum(codes.nbytes for codes, _, _ in qm.blocks.values()) \
            == sum(int(np.ceil(size * per_code)) for size in weights)

    def test_forward_contract_matches_dequantized_model(self):
        """int8 moves each weight by at most half its channel's step, h at
        most. A logit is a dot product of a layer-normed hidden state
        (d_model entries of order 1) with a weight row, so one layer's
        rounding moves it by about d_model * h; the bound allows that much.
        The seed-0 model below moved 4.9 h."""
        model, seq = model_and_seq()
        qm = quantize_weights(model, QuantConfig(bits=8, granularity=PER_CHANNEL))
        out = qm.dequantized_model().forward_logits(seq)
        assert out.shape == (model.cfg.vocab_size, seq.length)
        ref = model.forward_logits(seq)
        h = max(float(scales.max()) for _, scales, _ in qm.blocks.values()) / 2
        err = np.abs(out - ref).max()
        assert 0 < err <= model.cfg.d_model * h

    def test_exactly_representable_model_bit_identical(self):
        """Weights of the form (power-of-two scale) * int survive exactly."""
        model, seq = model_and_seq()
        rng = np.random.default_rng(5)
        for p in model.params.values():
            if p.data.ndim >= 2:
                codes = rng.integers(-127, 128, size=p.data.shape)
                codes[:, 0] = 127  # pin each channel's max to the grid edge
                p.data = (codes * 2.0 ** -9).astype(np.float32)
        base = model.forward_logits(seq)
        cfg = QuantConfig(bits=8, granularity=PER_CHANNEL)
        out = quantize_weights(model, cfg).dequantized_model().forward_logits(seq)
        np.testing.assert_array_equal(base, out)

    def test_monotone_degradation_4_vs_8_bit(self):
        model, seq = model_and_seq()
        base = model.forward_logits(seq)
        err = {}
        for bits, gran in ((8, PER_CHANNEL), (4, GROUPWISE)):
            out = quantize_weights(model, QuantConfig(bits=bits, granularity=gran,
                                                      group_size=16)
                                   ).dequantized_model().forward_logits(seq)
            err[bits] = float(((out - base) ** 2).mean())
        assert err[4] > err[8]

    def test_non_finite_weights_rejected(self):
        model, _ = model_and_seq()
        model.params["tok_emb"].data[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            quantize_weights(model, QuantConfig())

