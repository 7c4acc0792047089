import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairformer.errors import UndefinedMetricError
from fairformer.metrics import (accuracy, auc_score, evaluate, f1_score, predict_labels,
                                statistical_parity)
from fairformer.oracles import pairwise_auc


def test_parity_extreme_case():
    rates = statistical_parity([1, 1, 0, 0], [0, 0, 1, 1])
    assert rates.delta == 1.0
    assert rates.rate_group0 == 1.0 and rates.rate_group1 == 0.0


def test_parity_balanced_case():
    assert statistical_parity([1, 0, 1, 0], [0, 0, 1, 1]).delta == 0.0


def test_parity_quarter_case():
    pred = [1, 1, 0, 0, 1, 0, 0, 0]
    sens = [0, 0, 0, 0, 1, 1, 1, 1]
    rates = statistical_parity(pred, sens)
    assert rates.delta == 0.25
    assert rates.count_group0 == 4 and rates.count_group1 == 4


def test_parity_empty_group_raises():
    with pytest.raises(UndefinedMetricError):
        statistical_parity([1, 0], [0, 0])


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=60))
def test_parity_group_relabel_symmetry(pairs):
    pred = np.array([p for p, _ in pairs])
    sens = np.array([s for _, s in pairs])
    if sens.min() == sens.max():
        return
    a = statistical_parity(pred, sens).delta
    b = statistical_parity(pred, 1 - sens).delta
    assert a == b


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=60),
       st.randoms())
def test_parity_permutation_invariance(pairs, rnd):
    pred = np.array([p for p, _ in pairs])
    sens = np.array([s for _, s in pairs])
    if sens.min() == sens.max():
        return
    perm = np.arange(len(pairs))
    rnd.shuffle(perm)
    assert statistical_parity(pred, sens).delta == statistical_parity(pred[perm], sens[perm]).delta


def test_constant_predictor_is_parity_fair():
    rng = np.random.default_rng(0)
    sens = rng.integers(0, 2, 50)
    sens[:2] = [0, 1]
    labels = rng.integers(0, 2, 50)
    pred = np.ones(50, dtype=int)
    assert statistical_parity(pred, sens).delta == 0.0
    assert accuracy(pred, labels) == labels.mean()


def test_perfect_predictions():
    labels = np.array([0, 1, 1, 0, 1])
    scores = labels.astype(float)
    assert accuracy(labels, labels) == 1.0
    assert f1_score(labels, labels) == 1.0
    assert auc_score(scores, labels) == 1.0


def test_identical_scores_auc_half():
    assert auc_score(np.zeros(6), [0, 1, 0, 1, 0, 1]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(UndefinedMetricError):
        auc_score([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("seed", range(6))
def test_auc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, 10)
    labels[:2] = [0, 1]
    scores = np.round(rng.standard_normal(10), 1)  # rounding forces ties
    assert auc_score(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


def test_predict_labels_tie_goes_to_class_zero():
    logits = np.array([[0.5, 0.5], [0.1, 0.9], [0.9, 0.1]])
    assert predict_labels(logits).tolist() == [0, 1, 0]


def test_f1_zero_when_no_positives_anywhere():
    assert f1_score([0, 0], [0, 0]) == 0.0


def test_evaluate_report_consistency():
    rng = np.random.default_rng(5)
    n = 40
    logits = rng.standard_normal((n, 2))
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    sens = rng.integers(0, 2, n)
    sens[:2] = [0, 1]
    report = evaluate(logits, labels, sens)
    assert report.delta_sp == statistical_parity(predict_labels(logits), sens).delta
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.delta_sp <= 1.0
