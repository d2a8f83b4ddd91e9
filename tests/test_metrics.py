"""Metrics against an independent brute-force counting oracle."""

import json

import numpy as np
import pytest

from pndnet.errors import ArgumentError
from pndnet.metrics import compute_metrics, top_k_accuracy
from pndnet.tensor import Rng

from oracles import brute_force_metrics


class TestComputeMetrics:
    def test_binary_balanced_counts(self):
        # TP=TN=FP=FN=1 for class 1 (positive): pairs (pred, label)
        preds = [1, 1, 0, 0]
        labels = [1, 0, 1, 0]
        report = compute_metrics(preds, labels, 2)
        assert report.accuracy == 0.5
        pc = report.per_class[1]
        assert (pc["tp"], pc["tn"], pc["fp"], pc["fn"]) == (1, 1, 1, 1)
        assert pc["precision"] == pc["recall"] == pc["f1"] == 0.5

    def test_all_correct(self):
        preds = labels = [0, 1, 2, 0, 1, 2]
        report = compute_metrics(preds, labels, 3)
        assert report.accuracy == 1.0
        assert report.macro["f1"] == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        rng = Rng(seed)
        n = 7
        preds = rng.integers(0, n, 200)
        labels = rng.integers(0, n, 200)
        report = compute_metrics(preds, labels, n)
        confusion, per_class, accuracy = brute_force_metrics(preds, labels, n)
        np.testing.assert_array_equal(report.confusion, confusion)
        assert report.accuracy == accuracy
        for got, want in zip(report.per_class, per_class):
            assert got == want

    def test_row_sums_are_actual_counts(self):
        rng = Rng(20)
        labels = rng.integers(0, 4, 150)
        preds = rng.integers(0, 4, 150)
        report = compute_metrics(preds, labels, 4)
        for c in range(4):
            assert report.confusion[c].sum() == int((labels == c).sum())

    def test_count_identities(self):
        rng = Rng(21)
        preds = rng.integers(0, 5, 123)
        labels = rng.integers(0, 5, 123)
        report = compute_metrics(preds, labels, 5)
        s = 123
        assert sum(pc["tp"] for pc in report.per_class) == int(np.trace(report.confusion))
        assert sum(pc["tp"] + pc["fp"] for pc in report.per_class) == s
        assert sum(pc["tp"] + pc["fn"] for pc in report.per_class) == s

    def test_micro_equals_accuracy(self):
        rng = Rng(22)
        preds = rng.integers(0, 6, 300)
        labels = rng.integers(0, 6, 300)
        report = compute_metrics(preds, labels, 6)
        assert report.micro["precision"] == report.micro["recall"] == report.accuracy

    def test_zero_over_zero_convention(self):
        # class 2 never predicted and never present
        report = compute_metrics([0, 1, 0], [0, 1, 1], 3)
        pc = report.per_class[2]
        assert pc["precision"] == pc["recall"] == pc["f1"] == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ArgumentError):
            compute_metrics([0, 3], [0, 1], 3)
        with pytest.raises(ArgumentError):
            compute_metrics([0, -1], [0, 1], 3)

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            compute_metrics([], [], 3)

    def test_json_schema_keys(self):
        report = compute_metrics([0, 1], [0, 1], 2)
        report.top_k[1] = 1.0
        doc = report.to_json_dict()
        assert set(doc) == {"confusion_matrix", "per_class", "macro", "micro",
                            "accuracy", "top_k"}
        json.dumps(doc)  # must be serializable as-is


class TestTopK:
    def test_k_equals_n_is_one(self):
        rng = Rng(23)
        probs = rng.uniform(0, 1, (20, 5))
        labels = rng.integers(0, 5, 20)
        assert top_k_accuracy(probs, labels, 5) == 1.0

    def test_k1_equals_accuracy(self):
        rng = Rng(24)
        probs = rng.uniform(0, 1, (50, 4))
        labels = rng.integers(0, 4, 50)
        report = compute_metrics(probs.argmax(axis=1), labels, 4)
        assert top_k_accuracy(probs, labels, 1) == report.accuracy

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_sort_oracle(self, seed):
        rng = Rng(seed)
        probs = rng.uniform(0, 1, (40, 6))
        labels = rng.integers(0, 6, 40)
        for k in (1, 2, 3, 6):
            hits = 0
            for row, label in zip(probs, labels):
                ranked = sorted(range(6), key=lambda i: (-row[i], i))
                hits += int(label) in ranked[:k]
            assert top_k_accuracy(probs, labels, k) == hits / 40

    def test_ties_break_toward_lower_index(self):
        probs = np.array([[0.4, 0.4, 0.2]])
        assert top_k_accuracy(probs, [0], 1) == 1.0
        assert top_k_accuracy(probs, [1], 1) == 0.0

    def test_k_out_of_range(self):
        probs = np.array([[0.5, 0.5]])
        with pytest.raises(ArgumentError):
            top_k_accuracy(probs, [0], 0)
        with pytest.raises(ArgumentError):
            top_k_accuracy(probs, [0], 3)
