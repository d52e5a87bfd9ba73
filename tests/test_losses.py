import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn import tensor as T
from frameattn.errors import ConfigError, DataError
from frameattn.losses import LossConfig, MetricsAccumulator, combined_loss
from frameattn.tensor import LOG_FLOOR, Tensor, backward, gradcheck

CE = LossConfig(lam=0.0)


def focal(beta=0.25, gamma=2.0):
    return LossConfig(lam=1.0, beta=beta, gamma=gamma)


def numpy_loss(logits, labels, cfg):
    """The loss in numpy with the loss node's op order (means as sum times
    1/n, the focal term as (-beta * w) * log p_t), so values match bit for bit."""
    n = len(labels)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p_t = (e / e.sum(axis=1, keepdims=True))[np.arange(n), labels]
    log_p = np.log(np.maximum(p_t, 1e-12))
    ce = (-log_p).sum() * (1.0 / n)
    fl = (((1.0 - p_t) ** cfg.gamma * -cfg.beta) * log_p).sum() * (1.0 / n)
    return ce * (1.0 - cfg.lam) + fl * cfg.lam


def brute_force_mean_f1(predictions, labels, classes):
    """Oracle: full confusion matrix, then per-class F1 from its entries."""
    cm = np.zeros((classes, classes), dtype=int)
    for p, t in zip(predictions, labels):
        cm[t, p] += 1
    total = 0.0
    for c in range(classes):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        total += 2 * tp / denom if denom else 0.0
    return total / classes


def report_of(predictions, labels, classes):
    """The report of one MetricsAccumulator update."""
    acc = MetricsAccumulator(classes)
    acc.update(predictions, labels)
    return acc.report()


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 4)))
    loss = combined_loss(logits, np.array([0, 1, 2]), CE)
    assert abs(loss.item() - math.log(4)) < 1e-12
    assert abs(loss.item() - 1.386294) < 1e-6


def test_cross_entropy_confident_correct_goes_to_zero():
    losses = []
    for scale in (1.0, 5.0, 20.0):
        logits = np.zeros((1, 3))
        logits[0, 2] = scale
        losses.append(combined_loss(Tensor(logits), np.array([2]), CE).item())
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-8


def test_cross_entropy_two_class_derived():
    # softmax([0, ln 3]) = [0.25, 0.75]; -log(0.75)
    logits = Tensor(np.array([[0.0, math.log(3.0)]]))
    loss = combined_loss(logits, np.array([1]), CE)
    assert abs(loss.item() - (-math.log(0.75))) < 1e-12
    assert abs(loss.item() - 0.287682) < 1e-6


def test_cross_entropy_label_out_of_range():
    with pytest.raises(DataError, match="frame 1"):
        combined_loss(Tensor(np.zeros((2, 3))), np.array([0, 5]), CE)


def test_focal_loss_zero_when_certain():
    logits = np.zeros((1, 2))
    logits[0, 0] = 60.0
    assert combined_loss(Tensor(logits), np.array([0]), focal()).item() < 1e-12


def test_focal_collapses_to_cross_entropy():
    rng = np.random.default_rng(0)
    for _ in range(5):
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        fl = combined_loss(Tensor(logits), labels, focal(beta=1.0, gamma=0.0)).item()
        ce = combined_loss(Tensor(logits), labels, CE).item()
        assert abs(fl - ce) < 1e-12


def test_focal_loss_direct_arithmetic():
    # p_t = 0.5, beta 0.25, gamma 2 -> 0.25 * 0.25 * ln 2
    logits = Tensor(np.array([[0.0, 0.0]]))
    loss = combined_loss(logits, np.array([0]), focal(beta=0.25, gamma=2.0))
    expected = 0.25 * 0.25 * math.log(2.0)
    assert abs(loss.item() - expected) < 1e-12
    assert abs(loss.item() - 0.043322) < 1e-6


def test_combined_loss_endpoints():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    n = len(labels)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p_t = (e / e.sum(axis=1, keepdims=True))[np.arange(n), labels]
    ce = (-np.log(p_t)).sum() * (1.0 / n)
    fl = (((1.0 - p_t) ** 2.0 * -0.25) * np.log(p_t)).sum() * (1.0 / n)
    at0 = combined_loss(Tensor(logits), labels, LossConfig(lam=0.0)).item()
    at1 = combined_loss(Tensor(logits), labels, LossConfig(lam=1.0)).item()
    assert at0 == ce
    assert at1 == fl


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
def test_combined_loss_bit_identical_to_numpy_formula(lam, gamma):
    rng = np.random.default_rng(int(10 * lam + gamma * 100))
    for scale in (1.0, 30.0):
        logits = rng.normal(scale=scale, size=(17, 6))
        labels = rng.integers(0, 6, size=17)
        cfg = LossConfig(lam=lam, beta=0.4, gamma=gamma)
        loss = combined_loss(Tensor(logits), labels, cfg)
        assert loss.shape == ()
        assert loss.item() == numpy_loss(logits, labels, cfg)


def test_loss_log_clamps_at_floor():
    # a logit gap of 40 puts p_t near e^-40 ~ 4e-18 and a gap of 1e6 at
    # exactly 0, both below the floor: the loss is the floor value and the
    # gradient stays finite
    floor = -math.log(LOG_FLOOR)
    for lam in (0.0, 0.5, 1.0):
        for gap in (40.0, 1e6):
            logits = Tensor(np.array([[0.0, gap], [gap, 0.0]]), requires_grad=True)
            cfg = LossConfig(lam=lam, beta=0.25, gamma=2.0)
            loss = combined_loss(logits, np.array([0, 1]), cfg)
            backward(loss)
            assert loss.item() == (1.0 - lam) * floor + lam * 0.25 * floor
            assert np.isfinite(logits.grad).all()
            if lam == 0.0:  # the clamped log is constant below the floor
                np.testing.assert_array_equal(logits.grad, 0.0)


def test_focal_gradient_finite_when_certain():
    # p_t rounds to 1, where (1 - p_t)^(gamma - 1) is infinite for gamma < 1;
    # that factor counts as 0
    for gamma in (0.5, 2.0):
        logits = Tensor(np.array([[60.0, 0.0], [0.0, 0.3]]), requires_grad=True)
        backward(combined_loss(logits, np.array([0, 1]), focal(gamma=gamma)))
        assert np.isfinite(logits.grad).all()
        assert abs(logits.grad[0, 0]) < 1e-20


def test_combined_loss_affine_in_lambda():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    values = [
        combined_loss(Tensor(logits), labels, LossConfig(lam=lam)).item()
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    lo, hi = min(values[0], values[-1]), max(values[0], values[-1])
    for v in values:
        assert lo - 1e-12 <= v <= hi + 1e-12
    # affine: midpoint equals average of the endpoints
    assert abs(values[2] - 0.5 * (values[0] + values[-1])) < 1e-12


def test_combined_loss_gradcheck():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=6)
    cfg = LossConfig(lam=0.3)
    logits = Tensor(rng.normal(size=(6, 4)))
    assert gradcheck(lambda t: combined_loss(t, labels, cfg), logits) < 1e-6


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(lam=1.5)
    with pytest.raises(ConfigError):
        LossConfig(beta=0.0)
    with pytest.raises(ConfigError):
        LossConfig(gamma=-1.0)


def test_mean_f1_perfect_score():
    labels = np.array([0, 1, 2, 0, 1, 2])
    report = report_of(labels, labels, 3)
    assert report.mean_f1 == 1.0


def test_mean_f1_worked_example():
    report = report_of(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), 2)
    np.testing.assert_allclose(report.per_class_f1, [2.0 / 3.0, 0.8])
    assert abs(report.mean_f1 - 0.733333) < 1e-6


def test_mean_f1_no_true_positives():
    report = report_of(np.zeros(4, dtype=int), np.ones(4, dtype=int), 2)
    assert report.mean_f1 == 0.0


def test_mean_f1_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        classes = int(rng.integers(2, 6))
        labels = rng.integers(0, classes, size=n)
        preds = rng.integers(0, classes, size=n)
        report = report_of(preds, labels, classes)
        assert abs(report.mean_f1 - brute_force_mean_f1(preds, labels, classes)) < 1e-12


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=40),
    st.integers(0, 1000),
)
@settings(max_examples=50, deadline=None)
def test_mean_f1_invariant_under_relabeling(labels, perm_seed):
    rng = np.random.default_rng(perm_seed)
    labels = np.array(labels)
    preds = rng.integers(0, 5, size=len(labels))
    perm = rng.permutation(5)
    base = report_of(preds, labels, 5).mean_f1
    relabeled = report_of(perm[preds], perm[labels], 5).mean_f1
    assert abs(base - relabeled) < 1e-12


def test_accumulator_counts_over_successive_updates():
    labels = np.array([0, 0, 1, 1, 2])
    preds = np.array([0, 1, 1, 1, 0])
    a = MetricsAccumulator(3)
    a.update(preds[:2], labels[:2])
    a.update(preds[2:], labels[2:])
    whole = MetricsAccumulator(3)
    whole.update(preds, labels)
    np.testing.assert_array_equal(a.tp, whole.tp)
    np.testing.assert_array_equal(a.fp, whole.fp)
    np.testing.assert_array_equal(a.fn, whole.fn)
    # every evaluated frame is either a TP or an FN of its true class
    assert a.tp.sum() + a.fn.sum() == len(labels)


def test_accumulator_rejects_out_of_range():
    acc = MetricsAccumulator(2)
    with pytest.raises(DataError):
        acc.update(np.array([0, 3]), np.array([0, 1]))
