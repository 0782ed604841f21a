"""Loss values, gradients and semi-hard triplet selection."""

import math

import numpy as np
import pytest

import oracles
from faceveil.errors import ConfigError
from faceveil.losses import (
    box_loss,
    cross_entropy_loss,
    grad_check,
    landmark_loss,
    select_triplets,
    triplet_loss,
)


class TestCrossEntropy:
    def test_half_gives_ln2(self):
        loss, _ = cross_entropy_loss(0.5, 1.0)
        assert loss == pytest.approx(math.log(2.0))

    def test_confident_and_correct(self):
        loss, _ = cross_entropy_loss(0.9, 1.0)
        assert loss == pytest.approx(-math.log(0.9))

    def test_mean_over_batch(self):
        loss, grad = cross_entropy_loss([0.9, 0.1], [1.0, 0.0])
        assert loss == pytest.approx(-math.log(0.9))  # symmetric pair, same mean
        assert grad.shape == (2,)

    def test_gradient_value(self):
        _, grad = cross_entropy_loss(0.8, 1.0)
        assert grad[0] == pytest.approx(-1.0 / 0.8)

    def test_clamp_keeps_loss_finite_and_grad_zero(self):
        loss, grad = cross_entropy_loss(1.0, 0.0)
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-7), rel=1e-6)
        assert grad[0] == 0.0
        loss0, grad0 = cross_entropy_loss(0.0, 1.0)
        assert math.isfinite(loss0)
        assert grad0[0] == 0.0

    def test_non_binary_target_rejected(self):
        with pytest.raises(ConfigError):
            cross_entropy_loss(0.5, 0.5)

    def test_finite_difference(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, size=6)
        y = (rng.integers(0, 2, size=6)).astype(float)
        err = grad_check(lambda x: cross_entropy_loss(x, y), p)
        assert err < 1e-4


class TestSquaredLosses:
    def test_box_hand_value(self):
        loss, grad = box_loss([0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0])
        assert loss == pytest.approx(0.01 + 0.04 + 0.09 + 0.16)
        np.testing.assert_allclose(grad, [0.2, 0.4, 0.6, 0.8])

    def test_batch_mean_over_rows(self):
        pred = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        loss, grad = box_loss(pred, np.zeros((2, 4)))
        assert loss == pytest.approx(1.0)  # (1 + 1) / 2 rows
        np.testing.assert_allclose(grad, pred)  # 2 * diff / n_rows

    def test_single_vector_counts_as_one_sample(self):
        loss1, grad1 = box_loss([1.0, 0, 0, 0], [0.0, 0, 0, 0])
        assert loss1 == pytest.approx(1.0)
        assert grad1.shape == (4,)

    def test_landmark_uses_all_ten_coords(self):
        pred = np.full(10, 0.1)
        loss, grad = landmark_loss(pred, np.zeros(10))
        assert loss == pytest.approx(10 * 0.01)
        assert grad.shape == (10,)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            box_loss([0.0] * 4, [0.0] * 3)

    def test_finite_difference_tight(self):
        rng = np.random.default_rng(1)
        target = rng.normal(size=(3, 4))
        err = grad_check(lambda x: box_loss(x, target), rng.normal(size=(3, 4)))
        assert err < 1e-6  # quadratic: central differences are near exact


class TestTripletLoss:
    def test_identical_points_loss_is_margin(self):
        v = np.ones((1, 4))
        loss, _ = triplet_loss(v, v, v, margin=0.2)
        assert loss == pytest.approx(0.2)

    def test_hand_value(self):
        a = np.array([[0.0, 0.0]])
        p = np.array([[1.0, 0.0]])
        n = np.array([[0.0, 2.0]])
        # d_ap = 1, d_an = 4 -> max(0, 1 - 4 + 0.2) = 0
        loss, (da, dp, dn) = triplet_loss(a, p, n, margin=0.2)
        assert loss == 0.0
        np.testing.assert_array_equal(da, 0.0)
        np.testing.assert_array_equal(dp, 0.0)
        np.testing.assert_array_equal(dn, 0.0)

    def test_active_hinge_value_and_grads(self):
        a = np.array([[0.0, 0.0]])
        p = np.array([[0.0, 2.0]])
        n = np.array([[1.0, 0.0]])
        # d_ap = 4, d_an = 1 -> 4 - 1 + 0.2
        loss, (da, dp, dn) = triplet_loss(a, p, n, margin=0.2)
        assert loss == pytest.approx(3.2)
        np.testing.assert_allclose(da, 2.0 * (n - p))
        np.testing.assert_allclose(dp, -2.0 * (a - p))
        np.testing.assert_allclose(dn, 2.0 * (a - n))

    def test_sum_reduction(self):
        v = np.ones((3, 4))
        loss, _ = triplet_loss(v, v, v, margin=0.5)
        assert loss == pytest.approx(1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            triplet_loss(np.ones((1, 4)), np.ones((1, 4)), np.ones((2, 4)))

    def test_finite_difference_each_slot(self):
        rng = np.random.default_rng(2)
        # keep the hinge strictly active or inactive per row so the kink
        # cannot sit inside the difference stencil
        a = rng.normal(size=(4, 3))
        p, n = a.copy(), a.copy()
        p[:2] += 1.0
        n[:2] += 0.5  # rows 0-1: d_ap - d_an + 0.2 = 2.45, active
        p[2:] += 0.1
        n[2:] += 2.0  # rows 2-3: well below zero, inactive
        for slot in range(3):
            parts = [a, p, n]

            def f(x, slot=slot, parts=parts):
                args = list(parts)
                args[slot] = x
                loss, grads = triplet_loss(*args, margin=0.2)
                return loss, grads[slot]

            assert grad_check(f, parts[slot]) < 1e-6


class TestSelectTriplets:
    def test_two_children_one_adult(self):
        emb = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 0.0]])
        labels = np.array(["child", "child", "adult"])
        got = select_triplets(emb, labels)
        assert got == [(0, 1, 2), (1, 0, 2)]

    def test_single_class_yields_nothing(self):
        emb = np.random.default_rng(3).normal(size=(5, 4))
        assert select_triplets(emb, np.array(["adult"] * 5)) == []

    def test_count_equals_ordered_same_label_pairs(self):
        rng = np.random.default_rng(4)
        labels = np.array(["child"] * 4 + ["adult"] * 3)
        emb = rng.normal(size=(7, 8))
        got = select_triplets(emb, labels)
        assert len(got) == 4 * 3 + 3 * 2

    def test_semi_hard_beats_hardest(self):
        # anchor 0, positive at d^2 = 1; negatives at d^2 0.25 and 4:
        # the 0.25 one is closer overall but not beyond the positive
        emb = np.array([[0.0], [1.0], [0.5], [2.0]])
        labels = np.array(["child", "child", "adult", "adult"])
        got = select_triplets(emb, labels)
        assert (0, 1, 3) in got

    def test_falls_back_to_closest_when_no_semi_hard(self):
        emb = np.array([[0.0], [4.0], [1.0], [2.0]])
        labels = np.array(["child", "child", "adult", "adult"])
        got = select_triplets(emb, labels)
        # d_ap = 16 exceeds every negative: fall back to the nearest (index 2)
        assert (0, 1, 2) in got

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            emb = rng.normal(size=(n, 4))
            labels = np.array([("child", "adult")[int(b)] for b in rng.integers(0, 2, size=n)])
            got = select_triplets(emb, labels)
            want = oracles.select_triplets_brute(emb, labels)
            assert got == want

    def test_bad_shapes(self):
        with pytest.raises(ConfigError):
            select_triplets(np.ones(4), np.array(["child"]))
