"""Classification head, cross-entropy, and their gradients."""

import math

import numpy as np
import pytest

import oracles
import pndnet.tensor as T
from pndnet.errors import ArgumentError, DimensionError
from pndnet.gradcheck import grad_check
from pndnet.head import cross_entropy, head_logits, init_head
from pndnet.tensor import Rng, Tensor


def gap_head(c: int):
    """A head whose eval-mode logits are its GAP alone: no norm, an identity
    projection and a zero bias."""
    head = init_head(c, c, Rng(0), norm="none", dtype=np.float64)
    head.weight.data[:] = np.eye(c)
    head.bias.data[:] = 0.0
    return head


class TestGapNodes:
    """The GAP inside ``head_logits``, the mean of the P node rows; its
    gradient is checked against the oracle chain in ``test_fast_paths.py``."""

    def test_equal_rows(self):
        v = np.array([1.0, -2.0, 3.0])
        out = head_logits(gap_head(3), Tensor(np.tile(v, (5, 1))), "eval")
        np.testing.assert_allclose(out.data, [v])

    def test_single_row_identity(self):
        row = np.array([[0.5, 0.25]])
        np.testing.assert_array_equal(head_logits(gap_head(2), Tensor(row), "eval").data, row)

    def test_matches_summation_oracle(self):
        rng = Rng(0)
        x = rng.uniform(-1, 1, (13, 8))
        out = head_logits(gap_head(8), Tensor(x), "eval").data[0]
        for c in range(8):
            acc = sum(float(x[r, c]) for r in range(13))
            assert abs(out[c] - acc / 13.0) < 1e-6

    def test_wrong_rank(self):
        with pytest.raises(DimensionError):
            head_logits(gap_head(4), Tensor(np.zeros(4)), "eval")


class TestClassify:
    """Class probabilities ``softmax(head_logits(...).data)``, as the model takes them."""

    def test_zero_projection_gives_uniform(self):
        head = init_head(8, 5, Rng(1))
        head.weight.data[:] = 0.0
        head.bias.data[:] = 0.0
        f = Tensor(Rng(2).uniform(-1, 1, (3, 8)).astype(np.float32))
        probs = T.softmax(head_logits(head, f, "eval").data, axis=1)
        np.testing.assert_allclose(probs, 0.2, atol=1e-7)

    def test_eval_mode_deterministic(self):
        head = init_head(8, 3, Rng(3))
        f = Tensor(Rng(4).uniform(-1, 1, (3, 8)).astype(np.float32))
        a = T.softmax(head_logits(head, f, "eval").data, axis=1)
        b = T.softmax(head_logits(head, f, "eval").data, axis=1)
        np.testing.assert_array_equal(a, b)

    def test_probabilities_sum_to_one(self):
        head = init_head(16, 7, Rng(5))
        f = Tensor(Rng(6).uniform(-2, 2, (13, 16)).astype(np.float32))
        probs = T.softmax(head_logits(head, f, "eval").data, axis=1)
        assert abs(float(probs.sum()) - 1.0) < 1e-6

    def test_logit_shift_leaves_probabilities_unchanged(self):
        head = init_head(8, 4, Rng(7))
        f = Tensor(Rng(8).uniform(-1, 1, (3, 8)).astype(np.float32))
        logits = head_logits(head, f, "eval")
        base = T.softmax(logits.data, axis=1)
        shifted = T.softmax(logits.data + np.float32(3.25), axis=1)
        np.testing.assert_allclose(shifted, base, atol=1e-6)

    def test_train_mode_needs_rng(self):
        head = init_head(4, 2, Rng(9))
        with pytest.raises(ArgumentError):
            head_logits(head, Tensor(np.zeros((1, 4), dtype=np.float32)), "train")

    def test_norm_none_skips_normalization(self):
        head = init_head(4, 2, Rng(10), norm="none")
        f = Tensor(np.array([[10.0, 0.0, 0.0, 0.0]], dtype=np.float32))
        probs = T.softmax(head_logits(head, f, "eval").data, axis=1)
        assert probs.shape == (1, 2)

    def test_bad_norm_rejected(self):
        with pytest.raises(ArgumentError):
            init_head(4, 2, Rng(11), norm="batch")


class TestCrossEntropy:
    """The loss on logit rows, ``logsumexp(z) - z_t`` per row."""

    def test_perfect_prediction(self):
        out = cross_entropy(Tensor(np.array([[0.0, -1000.0]])), np.array([[1.0, 0.0]]))
        assert out.item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction(self):
        out = cross_entropy(Tensor(np.zeros((1, 4))), np.eye(4)[[2]])
        assert out.item() == pytest.approx(math.log(4.0), abs=1e-7)

    def test_half_probability(self):
        out = cross_entropy(Tensor(np.array([[0.5, 0.5]])), np.array([[1.0, 0.0]]))
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-7)

    def test_loss_is_mean_of_per_sample(self):
        rng = Rng(12)
        logits = Tensor(rng.uniform(-2, 2, (6, 5)))
        target = np.eye(5)[rng.integers(0, 5, 6)]
        out = cross_entropy(logits, target)
        assert out.per_sample.shape == (6,)
        assert abs(out.item() - out.per_sample.mean()) < 1e-7
        assert out.item() >= 0.0

    def test_non_one_hot_rejected(self):
        logits = Tensor(np.zeros((1, 2)))
        with pytest.raises(ArgumentError, match="one-hot"):
            cross_entropy(logits, np.array([[0.5, 0.5]]))
        with pytest.raises(ArgumentError, match="one-hot"):
            cross_entropy(logits, np.array([[1.0, 1.0]]))

    @pytest.mark.parametrize("target", [
        [[2.0, -1.0], [0.0, 1.0]],      # a row sums to 1 but is not 0/1
        [[1.0, 1.0], [0.0, 0.0]],       # as many non-zeros as rows, one row empty
        [[1.0, -1.0], [0.0, 1.0]],      # every row's maximum is 1
        [[0.5, 0.0], [0.0, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.inf], [0.0, 1.0]],
    ])
    def test_every_row_must_be_one_hot(self, target):
        with pytest.raises(ArgumentError, match="one-hot"):
            cross_entropy(Tensor(np.zeros((2, 2))), np.array(target))

    def test_negative_zero_is_a_zero_of_a_one_hot(self):
        out = cross_entropy(Tensor(np.zeros((1, 2))), np.array([[-0.0, 1.0]]))
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-7)

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = Rng(13)
        logits = Tensor(rng.uniform(-2, 2, (4, 6)), requires_grad=True)
        target = np.eye(6)[rng.integers(0, 6, 4)]
        cross_entropy(logits, target).loss.backward()
        np.testing.assert_allclose(logits.grad, (T.softmax(logits.data, axis=1) - target) / 4.0, atol=1e-12)
        fresh = Tensor(logits.data.copy(), requires_grad=True)
        err = grad_check(lambda a: cross_entropy(a, target).loss, [fresh])
        assert err <= 1e-4

    def test_batch_size_makes_rows_a_share_of_the_batch(self):
        rng = Rng(14)
        logits = rng.uniform(-2, 2, (5, 3))
        target = np.eye(3)[rng.integers(0, 3, 5)]
        whole = Tensor(logits.copy(), requires_grad=True)
        batch = cross_entropy(whole, target)
        batch.loss.backward()
        total = 0.0
        for i in range(5):
            row = Tensor(logits[i:i + 1].copy(), requires_grad=True)
            share = cross_entropy(row, target[i:i + 1], batch_size=5)
            share.loss.backward()
            np.testing.assert_array_equal(row.grad, whole.grad[i:i + 1])
            assert share.per_sample[0] == batch.per_sample[i]
            total += share.item()
        assert total == pytest.approx(batch.item(), rel=1e-12)

    def test_batch_size_below_rows_rejected(self):
        with pytest.raises(ArgumentError, match="batch size 1"):
            cross_entropy(Tensor(np.zeros((2, 2))), np.eye(2), batch_size=1)

    def test_trailing_true_class_keeps_loss_and_gradient(self):
        # 30 logits behind, the true class's probability (1e-13) is below
        # any clamp on probabilities; the loss and its gradient stay exact
        logits = Tensor(np.array([[0.0, 30.0, 0.0]], dtype=np.float32), requires_grad=True)
        out = cross_entropy(logits, np.array([[1.0, 0.0, 0.0]]))
        assert out.item() == pytest.approx(30.0, abs=1e-5)
        out.loss.backward()
        np.testing.assert_allclose(logits.grad, [[-1.0, 1.0, 0.0]], atol=1e-6)
        assert logits.grad[0, 0] != 0.0 and logits.grad[0, 2] != 0.0
        huge = cross_entropy(Tensor(np.array([[0.0, -1000.0]])), np.array([[0.0, 1.0]]))
        assert huge.item() == pytest.approx(1000.0, rel=1e-12)

    # past a gap of ~35 the other classes' e^-gap gradients fall below the
    # central difference's resolution, ulp(loss) / 2h, and both read ~0
    @pytest.mark.parametrize("gap", [40.0, 200.0])
    def test_gradcheck_in_f64_however_far_the_true_class_trails(self, gap):
        rng = Rng(15)
        logits = rng.uniform(-1, 1, (3, 4))
        logits[:, 1] += gap
        target = np.eye(4)[[0, 2, 3]]
        err = grad_check(lambda a: cross_entropy(a, target).loss, [Tensor(logits, requires_grad=True)])
        assert err <= 1e-4

    @pytest.mark.parametrize("dtype, rtol, atol", [(np.float32, 1e-5, 1e-6), (np.float64, 1e-12, 1e-14)])
    def test_matches_the_chain_oracle_above_the_clamp(self, dtype, rtol, atol):
        # softmax -> clamped log, the loss on probabilities, wherever the
        # true class's probability exceeds its clamp
        rng = Rng(16)
        compared = 0
        for spread in (0.1, 1.0, 5.0, 12.0, 25.0):
            z = (rng.uniform(-spread, spread, (8, 6))).astype(dtype)
            target = np.eye(6, dtype=dtype)[rng.integers(0, 6, 8)]
            p_true = (T.softmax(z, axis=1) * target).sum(axis=1)
            for i in np.flatnonzero(p_true > oracles.LOG_CLAMP):
                row = z[i:i + 1]
                got, want = Tensor(row.copy(), requires_grad=True), Tensor(row.copy(), requires_grad=True)
                loss = cross_entropy(got, target[i:i + 1], batch_size=8)
                chain = oracles.chain_cross_entropy(want, target[i:i + 1], batch_size=8)
                loss.loss.backward()
                chain.backward()
                np.testing.assert_allclose(loss.item(), chain.item(), rtol=rtol, atol=atol)
                np.testing.assert_allclose(got.grad, want.grad, rtol=rtol, atol=atol)
                compared += 1
        assert compared >= 30


class TestInitHead:
    def test_scale_shift_initialized_to_one_zero(self):
        head = init_head(8, 3, Rng(14))
        np.testing.assert_array_equal(head.scale.data, 1.0)
        np.testing.assert_array_equal(head.shift.data, 0.0)

    def test_needs_two_classes(self):
        with pytest.raises(ArgumentError):
            init_head(8, 1, Rng(15))

    def test_parameters_named(self):
        head = init_head(4, 2, Rng(16))
        names = [n for n, _ in head.parameters()]
        assert names == ["norm/scale", "norm/shift", "proj/weight", "proj/bias"]
