"""Tensor engine: op semantics, gradient checks against finite
differences, and Adam behavior."""

import math
import warnings

import numpy as np
import pytest

from tsrmcl.errors import ContractError, DegenerateInputError, DimensionError
from tsrmcl.tensor import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Tensor,
    adam_step,
    concat,
    l2_normalize,
    layer_norm,
    linear,
    logsumexp,
    matmul,
    softmax,
)

from conftest import assert_gradients_close, check_op_gradient, numeric_gradient


class TestInvariants:
    def test_shape_matches_data(self):
        t = Tensor(np.ones((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.size == 24

    def test_nonfinite_rejected_on_construction(self):
        with pytest.raises(ContractError):
            Tensor([1.0, np.nan])
        with pytest.raises(ContractError):
            Tensor([np.inf])

    @pytest.mark.parametrize("data", ["x", object(), ["1.0", "y"], {"a": 1}])
    def test_non_numeric_rejected_on_construction(self, data):
        with pytest.raises(ContractError, match="^Tensor needs numeric data"):
            Tensor(data)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_rejected_from_ops(self):
        with pytest.raises(ContractError):
            Tensor([1e308]) + Tensor([1e308])
        with pytest.raises(ContractError):
            Tensor([800.0]).exp()

    def test_ops_never_mutate_inputs(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        before_a = a.to_numpy()
        before_b = b.to_numpy()
        ((matmul(a, b) * 2.0 - b) / 3.0).sum().backward()
        np.testing.assert_array_equal(a.data, before_a)
        np.testing.assert_array_equal(b.data, before_b)

    def test_data_is_read_only(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0


class TestMatmul:
    def test_identity(self, rng):
        a = rng.normal(size=(3, 3))
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_zero(self, rng):
        b = rng.normal(size=(2, 4))
        out = matmul(Tensor(np.zeros((2, 2))), Tensor(b[:2, :]))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_batched_matches_loop(self, rng):
        a = rng.normal(size=(4, 3, 5))
        w = rng.normal(size=(5, 2))
        out = matmul(Tensor(a), Tensor(w))
        for i in range(4):
            np.testing.assert_allclose(out.data[i], a[i] @ w, atol=1e-14)


class TestLinear:
    def test_matches_matmul_plus_bias_bit_for_bit(self, rng):
        x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_array_equal(out.data, (matmul(Tensor(x), Tensor(w)) + Tensor(b)).data)

    def test_shape_mismatch_names_all_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\).*\(5,\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
        with pytest.raises(DimensionError):
            linear(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 5))), Tensor(np.ones((1, 5))))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([3.7, 3.7, 3.7]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=7)
        a = softmax(Tensor(x), axis=0).data
        b = softmax(Tensor(x + 123.456), axis=0).data
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_closed_form(self):
        out = softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(5, 9)) * 20
        out = softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(out.data >= 0)

    def test_bad_axis(self):
        with pytest.raises(DimensionError):
            softmax(Tensor([1.0, 2.0]), axis=3)


class TestLayerNorm:
    def test_constant_vector_zero_pre_affine(self):
        out = layer_norm(Tensor([4.0, 4.0, 4.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-5)
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-9)

    def test_affine_input_invariance(self, rng):
        x = rng.normal(size=(4, 6))
        g = Tensor(np.ones(6))
        b = Tensor(np.zeros(6))
        base = layer_norm(Tensor(x), g, b, eps=0.0).data
        scaled = layer_norm(Tensor(3.5 * x + 11.0), g, b, eps=0.0).data
        np.testing.assert_allclose(base, scaled, atol=1e-9)

    def test_hand_value_eps_zero(self):
        out = layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)
        root = math.sqrt(1.5)
        np.testing.assert_allclose(out.data, [-root, 0.0, root], atol=1e-12)

    def test_eps_zero_constant_row_rejected_without_warning(self):
        x = Tensor([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="zero-variance"):
                layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)

    def test_pre_affine_rows_standardized(self, rng):
        x = rng.normal(size=(8, 16)) * 5 + 3
        out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=0.0)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(8), atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(8), atol=1e-9)


class TestL2Normalize:
    def test_hand_value(self):
        np.testing.assert_allclose(l2_normalize(Tensor([3.0, 4.0])).data, [0.6, 0.8], atol=1e-15)

    def test_idempotent_on_unit(self, rng):
        x = rng.normal(size=5)
        u = l2_normalize(Tensor(x)).data
        np.testing.assert_allclose(l2_normalize(Tensor(u)).data, u, atol=1e-12)

    def test_scale_invariance(self, rng):
        x = rng.normal(size=6)
        a = l2_normalize(Tensor(x)).data
        b = l2_normalize(Tensor(937.0 * x)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unit_norm_postcondition(self, rng):
        for _ in range(20):
            x = rng.normal(size=8) * rng.uniform(0.01, 100)
            n = np.linalg.norm(l2_normalize(Tensor(x)).data)
            assert abs(n - 1.0) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize(Tensor([0.0, 0.0]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert float(x.grad) == pytest.approx(6.0, abs=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_diamond_graph_accumulates_once(self):
        # y = 2x, z = y*y = 4x^2, dz/dx = 8x
        x = Tensor(5.0, requires_grad=True)
        y = x + x
        (y * y).backward()
        assert float(x.grad) == pytest.approx(40.0, abs=1e-12)

    def test_backward_overwrites_previous_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, first)


def _random_cases(rng):
    # constants are drawn once so the FD oracle sees a fixed function
    c34 = Tensor(rng.normal(size=(3, 4)))
    d34 = Tensor(rng.uniform(1.0, 2.0, size=(3, 4)))
    c25 = Tensor(rng.normal(size=(2, 5)))
    c44 = Tensor(rng.normal(size=(4, 4)))
    d44 = Tensor(rng.normal(size=(4, 4)))
    x234 = Tensor(rng.normal(size=(2, 3, 4)))
    w43 = Tensor(rng.normal(size=(4, 3)))
    b3 = Tensor(rng.normal(size=3))
    gain6 = Tensor(rng.normal(size=6))
    bias6 = Tensor(rng.normal(size=6))
    x236 = Tensor(rng.normal(size=(2, 3, 6)))
    c64 = Tensor(rng.normal(size=(6, 4)))
    span = Tensor(np.linspace(-6.0, 6.0, 13))
    repeated = np.array([0, 2, 2, 1, 0, 2])
    return {
        "add": (lambda t: (t + c34 * 2.0).sum(), (3, 4)),
        "mul": (lambda t: (t * t).sum(), (3, 4)),
        "div": (lambda t: (t / d34).sum(), (3, 4)),
        "pow": (lambda t: ((t * t + 1.0) ** 1.5).sum(), (5,)),
        "exp": (lambda t: t.exp().sum(), (4,)),
        "sqrt": (lambda t: (t * t + 0.5).sqrt().sum(), (4,)),
        "sigmoid": (lambda t: t.sigmoid().sum(), (6,)),
        "gelu": (lambda t: t.gelu().sum(), (6,)),
        "leaky_relu": (lambda t: t.leaky_relu(0.01).sum(), (6,)),
        "matmul": (lambda t: (matmul(t, t.transpose()) ** 2.0).sum(), (3, 4)),
        "softmax": (lambda t: (softmax(t, axis=-1) ** 2.0).sum(), (3, 5)),
        "logsumexp": (lambda t: logsumexp(t, axis=1).sum(), (3, 5)),
        "layer_norm": (
            lambda t: (layer_norm(t, Tensor(np.ones(6)), Tensor(np.zeros(6)), 1e-5) ** 2.0).sum(),
            (4, 6),
        ),
        "layer_norm_x": (lambda t: (layer_norm(t, gain6, bias6) ** 2.0).sum(), (2, 3, 6)),
        "layer_norm_gain": (lambda t: (layer_norm(x236, t, bias6) ** 2.0).sum(), (6,)),
        "layer_norm_bias": (lambda t: (layer_norm(x236, gain6, t) ** 2.0).sum(), (6,)),
        "linear_x": (lambda t: (linear(t, w43, b3) ** 2.0).sum(), (2, 3, 4)),
        "linear_w": (lambda t: (linear(x234, t, b3) ** 2.0).sum(), (4, 3)),
        "linear_b": (lambda t: (linear(x234, w43, t) ** 2.0).sum(), (3,)),
        "gelu_wide": (lambda t: (span + t * 0.25).gelu().sum(), (13,)),
        "gather_repeated": (lambda t: (t[repeated] ** 2.0 * c64).sum(), (3, 4)),
        "gather_list": (lambda t: (t[repeated.tolist()] ** 2.0 * c64).sum(), (3, 4)),
        "gather_tuple": (lambda t: (t[(repeated, slice(1, 3))] ** 2.0 * c64[:, 1:3]).sum(), (3, 4)),
        "l2_normalize": (lambda t: (l2_normalize(t) * c25).sum(), (2, 5)),
        "max_axis": (lambda t: t.max(axis=1).sum(), (4, 5)),
        "maximum": (lambda t: t.maximum(c44).sum(), (4, 4)),
        "minimum": (lambda t: t.minimum(d44).sum(), (4, 4)),
        "reshape_transpose": (lambda t: (t.reshape(6, 2).transpose() * 3.0).sum(), (3, 4)),
        "getitem": (lambda t: (t[1:, ::2] ** 2.0).sum(), (4, 6)),
        "concat": (lambda t: (concat([t, t * 2.0], axis=0) ** 2.0).sum(), (2, 3)),
        "pad": (lambda t: (t.pad(((1, 1), (2, 0))) ** 2.0).sum(), (2, 3)),
        "broadcast": (lambda t: (t.reshape(1, 4) + Tensor(np.ones((3, 4))) * t.reshape(1, 4)).sum(), (4,)),
    }


@pytest.mark.parametrize("seed", range(10))
def test_gradient_check_all_ops(seed):
    """Every differentiable public op passes FD comparison for seeds 0..9."""
    rng = np.random.default_rng(seed)
    for name, (build, shape) in _random_cases(rng).items():
        x = rng.normal(size=shape)
        try:
            check_op_gradient(build, x)
        except AssertionError as exc:
            raise AssertionError(f"op {name}: {exc}") from exc


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = {"w": Tensor([1.0, -2.0], requires_grad=True)}
        state = AdamState.for_params(params)
        new_params, new_state = adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(new_params["w"].data, params["w"].data)
        assert new_state.step == state.step + 1

    def test_first_step_approximates_signed_lr(self, rng):
        g = rng.normal(size=8)
        g[np.abs(g) < 0.1] = 0.5  # keep eps effects negligible
        params = {"w": Tensor(np.zeros(8), requires_grad=True)}
        state = AdamState.for_params(params, lr=3e-4)
        new_params, _ = adam_step(params, {"w": g}, state)
        np.testing.assert_allclose(new_params["w"].data, -3e-4 * np.sign(g), rtol=1e-4)

    def test_determinism(self, rng):
        g = rng.normal(size=(3, 3))
        runs = []
        for _ in range(2):
            params = {"w": Tensor(np.ones((3, 3)), requires_grad=True)}
            state = AdamState.for_params(params, lr=1e-2)
            for _ in range(5):
                params, state = adam_step(params, {"w": g * state.step}, state)
            runs.append(params["w"].data)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_shape_mismatch(self):
        params = {"w": Tensor(np.ones(3), requires_grad=True)}
        state = AdamState.for_params(params)
        with pytest.raises(DimensionError):
            adam_step(params, {"w": np.ones(4)}, state)

    def test_defaults_match_stated_values(self):
        state = AdamState.for_params({})
        assert (state.lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (3e-4, 0.9, 0.999, 1e-8)


def test_directional_derivative_random_composite(rng):
    """Sanity: tape agrees with FD on a deep composite expression."""
    x0 = rng.normal(size=(4, 4))

    def build(t):
        h = matmul(t, Tensor(np.eye(4) * 0.5 + 0.1))
        h = softmax(h.gelu() + t.sigmoid(), axis=1)
        return logsumexp((h * h).sum(axis=0), axis=0)

    check_op_gradient(build, x0)
