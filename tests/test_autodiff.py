"""Unit and property tests for the reverse-mode autodiff engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import grad_check
from csplade import autodiff as ad
from csplade.autodiff import ShapeError, Tensor


def f64(x, requires_grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=requires_grad,
                  dtype=np.float64)


class TestForwardValues:
    def test_relu(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_log1p_zero(self):
        assert ad.log1p(Tensor([0.0])).data[0] == 0.0

    def test_max_over_axis(self):
        out = ad.max_over_axis(Tensor([[1.0, 3.0], [2.0, 0.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_uniform_softmax_cross_entropy_is_log_v(self):
        for v in (2, 7, 50):
            logits = Tensor(np.zeros((4, v)))
            loss = ad.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
            assert abs(float(loss.data) - np.log(v)) < 1e-6

    def test_gelu_matches_erf_form(self):
        from scipy.special import erf
        x = np.linspace(-3, 3, 13)
        expected = 0.5 * x * (1 + erf(x / np.sqrt(2)))
        np.testing.assert_allclose(ad.gelu(f64(x)).data, expected, atol=1e-12)

    def test_reparam_relu_forward_is_bit_identical_to_relu(self):
        x = np.random.default_rng(0).normal(size=100).astype(np.float32)
        a = ad.relu(Tensor(x)).data
        b = ad.reparam_relu(Tensor(x)).data
        np.testing.assert_array_equal(a, b)

    def test_masked_fill_broadcasts(self):
        t = Tensor(np.ones((2, 3)))
        out = ad.masked_fill(t, np.array([[True], [False]]), -5.0)
        np.testing.assert_array_equal(out.data, [[-5, -5, -5], [1, 1, 1]])


class TestBackwardContract:
    def test_square_gradient(self):
        x = f64([3.0], requires_grad=True)
        ad.sum_over_axis(ad.mul(x, x)).backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_dead_relu_gradient_is_zero(self):
        x = f64([-1.0], requires_grad=True)
        ad.sum_over_axis(ad.relu(x)).backward()
        assert x.grad[0] == 0.0

    def test_non_scalar_backward_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.relu(Tensor([1.0, 2.0], requires_grad=True)).backward()

    def test_double_backward_rejected(self):
        x = f64([2.0], requires_grad=True)
        loss = ad.sum_over_axis(ad.mul(x, x))
        loss.backward()
        with pytest.raises(RuntimeError, match="twice"):
            loss.backward()

    def test_unreachable_parameter_keeps_no_grad(self):
        x = f64([1.0], requires_grad=True)
        y = f64([1.0], requires_grad=True)
        ad.sum_over_axis(ad.mul(x, x)).backward()
        assert y.grad is None

    def test_grad_accumulates_across_shared_use(self):
        x = f64([2.0], requires_grad=True)
        ad.sum_over_axis(ad.add(x, x)).backward()
        assert x.grad[0] == pytest.approx(2.0)

    def test_reparam_relu_gradient_is_gelu_gradient(self):
        # d gelu/dx at -1 and 2 (exact erf form)
        # Phi(x) + x*phi(x): Phi(-1) - phi(1) and Phi(2) + 2*phi(2)
        for point, expected in ((-1.0, -0.0833154706), (2.0, 1.0852318011)):
            x = f64([point], requires_grad=True)
            ad.sum_over_axis(ad.reparam_relu(x)).backward()
            assert x.grad[0] == pytest.approx(expected, abs=1e-8)


class TestShapeErrors:
    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_embedding_id_out_of_range(self):
        with pytest.raises(ShapeError, match="embedding"):
            ad.embedding(Tensor(np.ones((3, 2)), requires_grad=True), np.array([3]))

    def test_reshape_bad_size(self):
        with pytest.raises(ShapeError, match="reshape"):
            ad.reshape(Tensor(np.ones(6)), (4, 2))


def _away_from_kinks(rng, shape, margin=1e-3):
    x = rng.normal(size=shape)
    x[np.abs(x) < margin] += 2 * margin
    return x

OPS = {
    "add": lambda x: ad.sum_over_axis(ad.add(x, Tensor(np.full(x.shape, 0.3, dtype=np.float64)))),
    "sub": lambda x: ad.sum_over_axis(ad.sub(x, Tensor(np.full(x.shape, 0.2, dtype=np.float64)))),
    "mul": lambda x: ad.sum_over_axis(ad.mul(x, x)),
    "scale": lambda x: ad.sum_over_axis(ad.scale(x, 1.7)),
    "matmul": lambda x: ad.sum_over_axis(ad.matmul(x, ad.transpose(x))),
    "relu": lambda x: ad.sum_over_axis(ad.relu(x)),
    "gelu": lambda x: ad.sum_over_axis(ad.gelu(x)),
    "log1p": lambda x: ad.sum_over_axis(ad.log1p(ad.mul(x, x))),
    "exp": lambda x: ad.sum_over_axis(ad.exp(ad.scale(x, 0.3))),
    "transpose": lambda x: ad.sum_over_axis(ad.mul(ad.transpose(x), ad.transpose(x))),
    "reshape": lambda x: ad.sum_over_axis(ad.mul(ad.reshape(x, (-1,)), ad.reshape(x, (-1,)))),
    "max_over_axis": lambda x: ad.sum_over_axis(ad.max_over_axis(x, axis=1)),
    "sum_over_axis": lambda x: ad.sum_over_axis(ad.mul(ad.sum_over_axis(x, axis=0), ad.sum_over_axis(x, axis=0))),
    "mean_over_axis": lambda x: ad.sum_over_axis(ad.mul(ad.mean_over_axis(x, axis=1), ad.mean_over_axis(x, axis=1))),
    "masked_fill": lambda x: ad.sum_over_axis(ad.mul(m := ad.masked_fill(x, np.eye(x.shape[0], x.shape[1], dtype=bool), 0.5), m)),
    "softmax": lambda x: ad.sum_over_axis(ad.mul(s := ad.softmax(x, axis=-1), s)),
    "softmax_cross_entropy": lambda x: ad.softmax_cross_entropy(x, np.arange(x.shape[0]) % x.shape[1]),
    "layer_norm": lambda x: ad.sum_over_axis(
        ad.mul(n := ad.layer_norm(x, Tensor(np.full(x.shape[-1], 1.1, dtype=np.float64)),
                                  Tensor(np.full(x.shape[-1], 0.1, dtype=np.float64))), n)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = _away_from_kinks(rng, (3, 4))
        assert grad_check(OPS[name], Tensor(x, dtype=np.float64)) < 1e-6, name


def test_embedding_gradient():
    ids = np.array([[0, 2], [2, 1]])

    def f(w):
        return ad.sum_over_axis(ad.mul(e := ad.embedding(w, ids), e))

    rng = np.random.default_rng(0)
    assert grad_check(f, Tensor(rng.normal(size=(4, 3)), dtype=np.float64)) < 1e-6


def test_layer_norm_gain_bias_gradients():
    rng = np.random.default_rng(1)
    a = np.asarray(rng.normal(size=(3, 5)))

    def f_gain(g):
        return ad.sum_over_axis(ad.layer_norm(Tensor(a, dtype=np.float64), g,
                                              Tensor(np.zeros(5), dtype=np.float64)))

    def f_bias(b):
        return ad.sum_over_axis(ad.layer_norm(Tensor(a, dtype=np.float64),
                                              Tensor(np.ones(5), dtype=np.float64), b))

    assert grad_check(f_gain, Tensor(rng.normal(size=5), dtype=np.float64)) < 1e-6
    assert grad_check(f_bias, Tensor(rng.normal(size=5), dtype=np.float64)) < 1e-6


def test_grad_check_trivial_cases():
    # sum of squares
    err = grad_check(lambda x: ad.sum_over_axis(ad.mul(x, x)),
                     Tensor([1.0, 2.0, 3.0], dtype=np.float64))
    assert err < 1e-8
    # everywhere-dead relu: both gradients identically zero
    err = grad_check(lambda x: ad.sum_over_axis(ad.relu(x)),
                     Tensor([-1.0, -2.0], dtype=np.float64))
    assert err == 0.0


def test_grad_check_rejects_non_finite():
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        grad_check(lambda x: ad.sum_over_axis(ad.exp(ad.scale(x, 1000.0))),
                   Tensor([500.0], dtype=np.float64))


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=5),
                  elements=st.floats(-10, 10)))
def test_softmax_rows_sum_to_one(x):
    p = ad.softmax(Tensor(x, dtype=np.float64), axis=-1).data
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert (p >= 0).all()


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-100, 100)))
def test_relu_output_non_negative(x):
    assert (ad.relu(Tensor(x, dtype=np.float64)).data >= 0).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(-50, 50))
def test_cross_entropy_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(3, 6))
    t = np.array([0, 3, 5])
    a = float(ad.softmax_cross_entropy(Tensor(logits, dtype=np.float64), t).data)
    b = float(ad.softmax_cross_entropy(Tensor(logits + shift, dtype=np.float64), t).data)
    assert abs(a - b) < 1e-9


# --- fused attention, slicing, GELU, gradient storage, no_grad ---

def _attention_masks(b, l):
    """Banned-position masks (B, 1, L, L): bidirectional, causal, padded."""
    lengths = np.array([l, l - 2] + [l - 1] * (b - 2))[:b]
    padded = ~np.broadcast_to((np.arange(l)[None, :] < lengths[:, None])[:, None, None, :],
                              (b, 1, l, l))
    causal = ~np.tril(np.ones((l, l), dtype=bool))[None, None]
    return {
        "bidirectional": np.zeros((b, 1, l, l), dtype=bool),
        "causal": np.broadcast_to(causal, (b, 1, l, l)),
        "padded": padded,
        "causal_padded": padded | causal,
    }


def _attention_grads(attend, qkv, banned, heads, upstream):
    leaves = [Tensor(x.copy(), requires_grad=True) for x in qkv]
    out = attend(*leaves, banned, heads)
    ad.sum_over_axis(ad.mul(out, Tensor(upstream))).backward()
    return out.data, [t.grad for t in leaves]


@pytest.mark.parametrize("mask", ["bidirectional", "causal", "padded", "causal_padded"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_bit_identical_to_primitive_chain(mask, dtype):
    from conftest import attention_chain
    rng = np.random.default_rng(0)
    b, l, d, heads = 3, 6, 8, 2
    qkv = [rng.normal(size=(b, l, d)).astype(dtype) for _ in range(3)]
    banned = _attention_masks(b, l)[mask]
    upstream = rng.normal(size=(b, l, d)).astype(dtype)
    fused, fused_grads = _attention_grads(ad.attention, qkv, banned, heads, upstream)
    chain, chain_grads = _attention_grads(attention_chain, qkv, banned, heads, upstream)
    assert fused.dtype == chain.dtype == dtype
    assert fused.tobytes() == chain.tobytes()
    for name, gf, gc in zip("qkv", fused_grads, chain_grads):
        assert gf.dtype == gc.dtype and gf.tobytes() == gc.tobytes(), name


def test_attention_is_one_node_and_masks_exactly():
    rng = np.random.default_rng(1)
    q, k, v = (Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    out = ad.attention(q, k, v, _attention_masks(2, 4)["causal"], 2)
    assert out.op == "attention" and out._parents == (q, k, v)
    # under a causal mask the first position attends only to itself
    np.testing.assert_array_equal(out.data[:, 0], v.data[:, 0])
    with pytest.raises(ShapeError, match="divisible"):
        ad.attention(q, k, v, np.zeros((2, 1, 4, 4), dtype=bool), 3)


@pytest.mark.parametrize("leaf", ["q", "k", "v"])
@pytest.mark.parametrize("mask", ["bidirectional", "causal_padded"])
def test_attention_gradient_matches_finite_differences(leaf, mask):
    rng = np.random.default_rng(2)
    b, l, d, heads = 2, 4, 4, 2
    fixed = {name: Tensor(rng.normal(size=(b, l, d)), dtype=np.float64) for name in "qkv"}
    banned = _attention_masks(b, l)[mask]
    w = Tensor(rng.normal(size=(b, l, d)), dtype=np.float64)

    def f(x):
        args = dict(fixed, **{leaf: x})
        return ad.sum_over_axis(ad.mul(ad.attention(args["q"], args["k"], args["v"],
                                                    banned, heads), w))

    assert grad_check(f, Tensor(rng.normal(size=(b, l, d)), dtype=np.float64)) < 1e-6


@pytest.mark.parametrize("axis, start, stop", [(0, 0, 2), (1, 1, 3), (-1, 0, 3), (2, 2, 4)])
def test_slice_axis_gradient(axis, start, stop):
    rng = np.random.default_rng(3)

    def f(x):
        s = ad.slice_axis(x, axis, start, stop)
        return ad.sum_over_axis(ad.mul(s, s))

    x = rng.normal(size=(3, 4, 5))
    key = (slice(None),) * (axis % 3) + (slice(start, stop),)
    out = ad.slice_axis(Tensor(x, dtype=np.float64), axis, start, stop)
    np.testing.assert_array_equal(out.data, x[key])
    assert out.data.flags.c_contiguous
    assert grad_check(f, Tensor(x, dtype=np.float64)) < 1e-6


def test_slice_axis_bit_identical_to_identity_matmul():
    from conftest import slice_by_matmul
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6, 7)).astype(np.float32)
    upstream = rng.normal(size=(3, 5, 7)).astype(np.float32)
    results = []
    for take in (ad.slice_axis, slice_by_matmul):
        leaf = Tensor(x.copy(), requires_grad=True)
        out = take(leaf, 1, 0, 5)
        ad.sum_over_axis(ad.mul(out, Tensor(upstream))).backward()
        results.append((out.data.tobytes(), leaf.grad.tobytes()))
    assert results[0] == results[1]


def test_slice_axis_rejects_bad_axis():
    with pytest.raises(ShapeError, match="slice_axis"):
        ad.slice_axis(Tensor(np.ones((2, 3))), 2, 0, 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_gradient_bit_identical_to_closed_form(dtype):
    import math
    from conftest import gelu_float32_closed_form
    x = np.random.default_rng(5).normal(size=(4, 6)).astype(dtype)
    g = np.random.default_rng(6).normal(size=(4, 6)).astype(dtype)
    leaf = Tensor(x, requires_grad=True)
    ad.sum_over_axis(ad.mul(ad.gelu(leaf), Tensor(g))).backward()
    if dtype == np.float64:  # the erf of float64 GELU: math.erf per element
        erf = np.vectorize(math.erf, otypes=[np.float64])
        deriv = 0.5 * (1.0 + erf(x / np.sqrt(2.0))) \
            + x * (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    else:  # the vectorized erfc, every temporary float32
        deriv = gelu_float32_closed_form(x)[1]
    expected = g * deriv.astype(dtype)
    assert leaf.grad.dtype == dtype and leaf.grad.tobytes() == expected.tobytes()


class TestGradientStorage:
    def test_first_gradient_is_stored_without_copy(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        g = np.full((2, 3), 2.0, dtype=np.float32)
        a._accumulate(g)
        assert a.grad is g

    def test_gradient_takes_layout_and_dtype_of_data(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        g = np.arange(6, dtype=np.float64).reshape(3, 2).T  # F-ordered, float64
        a._accumulate(g)
        assert a.grad.flags.c_contiguous and a.grad.dtype == np.float32
        np.testing.assert_array_equal(a.grad, g)
        t = Tensor(np.ones((3, 2), dtype=np.float32).T, requires_grad=True)  # F-ordered data
        t._accumulate(np.ones((2, 3), dtype=np.float32))
        assert t.grad.strides == np.empty_like(t.data).strides

    def test_later_contributions_never_write_into_an_earlier_gradient(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        g1 = np.ones(3, dtype=np.float32)
        a._accumulate(g1)
        a._accumulate(np.ones(3, dtype=np.float32))
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(g1, [1.0, 1.0, 1.0])

    def test_add_shares_one_gradient_between_its_inputs(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        ad.sum_over_axis(ad.add(a, b)).backward()
        assert a.grad is b.grad

    def test_embedding_does_not_write_into_a_shared_gradient(self):
        w = Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
        shifted = ad.add(w, Tensor(np.zeros((3, 2), dtype=np.float32)))
        loss = ad.add(ad.sum_over_axis(shifted), ad.sum_over_axis(ad.embedding(w, [0, 0, 2])))
        loss.backward()
        np.testing.assert_array_equal(w.grad, [[3, 3], [1, 1], [2, 2]])
        np.testing.assert_array_equal(shifted.grad, np.ones((3, 2)))


class TestNoGrad:
    def test_ops_build_no_graph(self):
        x = Tensor(np.random.default_rng(7).normal(size=(2, 3, 4)).astype(np.float32),
                   requires_grad=True)
        banned = np.zeros((2, 1, 3, 3), dtype=bool)
        with ad.no_grad():
            outs = [ad.gelu(x), ad.attention(x, x, x, banned, 2), ad.slice_axis(x, 1, 0, 2),
                    ad.softmax_cross_entropy(ad.reshape(x, (6, 4)), np.zeros(6, dtype=int)),
                    ad.embedding(Tensor(np.ones((5, 2)), requires_grad=True), [1, 4])]
        for out in outs:
            assert not out.requires_grad and out._backward is None and out._parents == ()

    def test_values_equal_grad_mode_and_mode_restored(self):
        x = Tensor(np.random.default_rng(8).normal(size=(5, 4)).astype(np.float32),
                   requires_grad=True)
        with ad.no_grad():
            off = ad.layer_norm(ad.gelu(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        on = ad.layer_norm(ad.gelu(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert on.requires_grad and on.data.tobytes() == off.data.tobytes()
        with pytest.raises(KeyError), ad.no_grad():
            raise KeyError("boom")
        assert ad.gelu(x).requires_grad


# the encoder's projections: (B, L, d) @ (d, d | 4d | V) and (B, L, 4d) @ (4d, d)
ENCODER_MATMULS = [((32, 18, 64), (64, 64)), ((32, 18, 64), (64, 256)),
                   ((32, 18, 64), (64, 204)), ((32, 18, 256), (256, 64)),
                   ((8, 5, 64), (64, 204)), ((1, 35, 64), (64, 256))]


def _matmul_grads(mm, a, b, upstream):
    la, lb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    out = mm(la, lb)
    ad.sum_over_axis(ad.mul(out, Tensor(upstream))).backward()
    return out.data, la.grad, lb.grad


class TestMatmulRows:
    """A 2-D right operand folds the leading axes of the left one into rows."""

    @pytest.mark.parametrize("shape_a, shape_b", ENCODER_MATMULS)
    def test_float32_forward_bit_equal_to_batched(self, shape_a, shape_b):
        from conftest import batched_matmul
        rng = np.random.default_rng(10)
        a = rng.normal(size=shape_a).astype(np.float32)
        b = rng.normal(size=shape_b).astype(np.float32)
        up = rng.normal(size=shape_a[:-1] + shape_b[-1:]).astype(np.float32)
        rows, batched = (_matmul_grads(mm, a, b, up) for mm in (ad.matmul, batched_matmul))
        assert rows[0].dtype == np.float32 and rows[0].flags.c_contiguous
        assert rows[0].tobytes() == batched[0].tobytes()
        for got, want in zip(rows[1:], batched[1:]):
            assert got.dtype == np.float32 and got.shape == want.shape

    @pytest.mark.parametrize("shape_a, shape_b", ENCODER_MATMULS)
    def test_gradients_match_batched(self, shape_a, shape_b):
        # float64: the tolerance then bounds the new summation order, not
        # float32 cancellation in entries near zero
        from conftest import batched_matmul
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
        up = rng.normal(size=shape_a[:-1] + shape_b[-1:])
        rows, batched = (_matmul_grads(mm, a, b, up) for mm in (ad.matmul, batched_matmul))
        for got, want in zip(rows[1:], batched[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize("leaf", ["a", "b"])
    def test_gradient_matches_finite_differences(self, leaf):
        rng = np.random.default_rng(12)
        fixed = {"a": rng.normal(size=(3, 4, 5)), "b": rng.normal(size=(5, 6))}
        w = Tensor(rng.normal(size=(3, 4, 6)), dtype=np.float64)

        def f(x):
            args = dict({k: Tensor(v, dtype=np.float64) for k, v in fixed.items()}, **{leaf: x})
            return ad.sum_over_axis(ad.mul(ad.matmul(args["a"], args["b"]), w))

        assert grad_check(f, Tensor(fixed[leaf], dtype=np.float64)) < 1e-6

    def test_transposed_right_operand(self):
        # the LM head: x @ transpose(tok_emb), a non-contiguous 2-D view
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True, dtype=np.float64)
        out = ad.matmul(x, ad.transpose(w))
        np.testing.assert_allclose(out.data, np.matmul(x.data, w.data.T), rtol=1e-12)
        ad.sum_over_axis(out).backward()
        np.testing.assert_allclose(w.grad, np.ones((2 * 3, 5)).T @ x.data.reshape(6, 4),
                                   rtol=1e-12)
        np.testing.assert_allclose(x.grad, np.broadcast_to(w.data.sum(axis=0), (2, 3, 4)),
                                   rtol=1e-12)


def _embedding_grads(emb, table, ids, upstream):
    w = Tensor(table.copy(), requires_grad=True)
    ad.sum_over_axis(ad.mul(emb(w, ids), Tensor(upstream))).backward()
    return w.grad


class TestEmbeddingBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fresh_table_matches_add_at(self, dtype):
        from conftest import embedding_add_at
        rng = np.random.default_rng(15)
        table = rng.normal(size=(40, 64)).astype(dtype)
        for ids in (rng.permutation(40)[:25],                      # each id once: exact
                    rng.integers(0, 40, size=(32, 35)),            # repeats, gaps
                    np.broadcast_to(np.arange(18), (32, 18)),      # pos_emb's ids
                    np.array([2]), np.zeros((0, 3), dtype=np.int64)):
            up = rng.normal(size=ids.shape + (64,)).astype(dtype)
            ours, oracle = (_embedding_grads(emb, table, ids, up)
                            for emb in (ad.embedding, embedding_add_at))
            assert ours.dtype == dtype
            if np.bincount(np.ravel(ids), minlength=1).max(initial=0) <= 1:
                assert ours.tobytes() == oracle.tobytes()
            else:  # np.add.reduceat does not add a group's rows in row order
                np.testing.assert_allclose(ours, oracle, rtol=1e-5, atol=1e-5)

    def test_existing_gradient_close_to_add_at(self):
        # the tied LM head's gradient reaches tok_emb before the lookup's
        from conftest import embedding_add_at
        rng = np.random.default_rng(16)
        table = rng.normal(size=(6, 4)).astype(np.float32)
        ids = rng.integers(0, 6, size=(5, 7))
        up = rng.normal(size=(5, 7, 4)).astype(np.float32)
        x = rng.normal(size=(5, 7, 4)).astype(np.float32)
        grads = []
        for emb in (ad.embedding, embedding_add_at):
            w = Tensor(table.copy(), requires_grad=True)
            head = ad.matmul(Tensor(x), ad.transpose(w))
            loss = ad.add(ad.sum_over_axis(ad.mul(emb(w, ids), Tensor(up))),
                          ad.sum_over_axis(head))
            loss.backward()
            grads.append(w.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-5, atol=1e-5)

    def test_no_grad_builds_no_sort(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ad.np, "argsort", lambda *a, **k: calls.append(1))
        w = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        with ad.no_grad():
            ad.embedding(w, [[1, 3, 1]])
        assert calls == []


def test_float32_gelu_makes_no_float64_temporaries(monkeypatch):
    seen = []
    erf = ad._erf

    def spy(x):
        seen.append(x.dtype)
        return erf(x)

    monkeypatch.setattr(ad, "_erf", spy)
    x = Tensor(np.random.default_rng(17).normal(size=(3, 4)).astype(np.float32),
               requires_grad=True)
    out = ad.gelu(x)
    ad.sum_over_axis(ad.mul(out, Tensor(np.ones((3, 4), dtype=np.float32)))).backward()
    assert seen == []  # float32 never reaches the float64 math.erf loop
    assert out.data.dtype == np.float32 and x.grad.dtype == np.float32
    saved = [c.cell_contents for c in out._backward.__closure__]  # the derivative
    assert all(v.dtype == np.float32 for v in saved if isinstance(v, np.ndarray))


class TestFloat32Gelu:
    """Float32 GELU against a float64 scipy reference."""

    @staticmethod
    def points():
        tiny = np.finfo(np.float32).tiny
        special = [0.0, -0.0, tiny, -tiny, tiny / 2, -tiny / 2, 1e-45, -1e-45,
                   -10.0, -10.5, -11.0, -20.0, -1e4, 1e4]
        return np.concatenate([np.linspace(-12, 12, 48_001),
                               np.random.default_rng(23).normal(0, 1.5, 20_000),
                               special]).astype(np.float32)

    @staticmethod
    def reference(x):
        from scipy.special import erf
        x = x.astype(np.float64)
        one_plus_erf = 1.0 + erf(x / np.sqrt(2.0))
        return (0.5 * x * one_plus_erf,
                0.5 * one_plus_erf + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi))

    def gelu_and_grad(self, x):
        leaf = Tensor(x, requires_grad=True)
        out = ad.gelu(leaf)
        ad.sum_over_axis(out).backward()
        return out.data, leaf.grad

    def test_accuracy(self):
        x = self.points()
        out, grad = self.gelu_and_grad(x)
        ref_out, ref_grad = self.reference(x)
        assert out.dtype == np.float32 and grad.dtype == np.float32
        bound = 4 * np.spacing(np.maximum(np.abs(x), np.float32(1)))
        assert np.all(np.abs(out - ref_out) <= bound)
        assert np.max(np.abs(grad - ref_grad)) <= 5e-7

    def test_finite_and_zero_far_left(self):
        x = self.points()
        out, grad = self.gelu_and_grad(x)
        assert np.isfinite(out).all() and np.isfinite(grad).all()
        assert np.all(out[(x <= -10) | (x == 0)] == 0)
        huge = np.array([-np.finfo(np.float32).max, np.finfo(np.float32).max], dtype=np.float32)
        with np.errstate(over="ignore"):  # x * x overflows to inf; exp(-inf) is 0
            out, grad = self.gelu_and_grad(huge)
        assert out.tolist() == [0.0, huge[1]] and grad.tolist() == [0.0, 1.0]

    def test_no_grad_forward_matches_recorded_forward(self):
        x = self.points()
        with ad.no_grad():
            plain = ad.gelu(Tensor(x)).data
        assert plain.tobytes() == self.gelu_and_grad(x)[0].tobytes()

    def test_zero_dim_input(self):
        x = np.float32(0.7)
        out, grad = self.gelu_and_grad(np.array(x))
        ref_out, ref_grad = self.reference(np.array([x]))
        assert out.shape == () and grad.shape == ()
        assert abs(float(out) - ref_out[0]) <= 4 * np.spacing(np.float32(1))
        assert abs(float(grad) - ref_grad[0]) <= 5e-7

    def test_reparam_relu_backward_is_gelu_derivative(self):
        x = self.points()
        leaf = Tensor(x, requires_grad=True)
        ad.sum_over_axis(ad.reparam_relu(leaf)).backward()
        assert leaf.grad.tobytes() == self.gelu_and_grad(x)[1].tobytes()
