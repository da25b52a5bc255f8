import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mtlmolnet.metrics import (
    ConstantInput,
    MetricsReport,
    NoPositives,
    PcaResult,
    SingleClass,
    aggregate,
    auprc,
    auroc,
    pca,
    pearson,
)


def brute_force_auroc(scores, labels):
    """Independent oracle: enumerate every positive-negative pair."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect(self):
        assert auroc([0.9, 0.1], [1, 0]) == 1.0

    def test_tie(self):
        assert auroc([0.5, 0.5], [1, 0]) == 0.5

    def test_hand_case(self):
        # brute force over the 4 positive-negative pairs gives 0.875
        assert auroc([0.5, 0.5, 0.8, 0.2], [1, 0, 1, 0]) == 0.875

    def test_single_class(self):
        with pytest.raises(SingleClass):
            auroc([0.1, 0.2], [1, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 13)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)
        assert auroc(scores, labels) == brute_force_auroc(scores, labels)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=n)
        assert auroc(scores, labels) == auroc(np.exp(scores), labels)
        assert auroc(scores, labels) == auroc(3 * scores + 5, labels)


class TestAuprc:
    def test_perfect(self):
        assert auprc([0.9, 0.1], [1, 0]) == 1.0

    def test_positive_ranked_second(self):
        assert auprc([0.9, 0.1], [0, 1]) == 0.5

    def test_all_equal_scores_give_prevalence(self):
        # p positives of n with one shared cut -> exactly p/n, any order
        assert auprc([0.4] * 5, [1, 0, 1, 0, 0]) == pytest.approx(0.4, abs=1e-15)
        assert auprc([0.4] * 5, [0, 0, 0, 1, 1]) == pytest.approx(0.4, abs=1e-15)
        assert auprc([0.4, 0.4], [1, 0]) == 0.5

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            auprc([0.5, 0.5], [0, 0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_bounded_and_constant_floor(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        scores = rng.normal(size=n)
        ap = auprc(scores, labels)
        assert 0.0 < ap <= 1.0
        prevalence = labels.sum() / n
        assert auprc(np.full(n, 0.5), labels) == pytest.approx(prevalence, abs=1e-12)


def test_tie_runs_match_the_loops_bitwise():
    rng = np.random.default_rng(7)
    for trial in range(2000):
        n = int(rng.integers(2, 700 if trial % 100 == 0 else 40))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        # few distinct values give long tie runs; many give none
        scores = (rng.integers(0, int(rng.integers(1, 2 * n)), size=n) / 7.0
                  if trial % 2 else rng.random(n))
        a, b = auroc(scores, labels), oracles.auroc_loop(scores, labels)
        assert type(a) is type(b) and float(a).hex() == float(b).hex()
        a, b = auprc(scores, labels), oracles.auprc_loop(scores, labels)
        assert type(a) is type(b) is float and a.hex() == b.hex()


class TestPearson:
    def test_affine(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_scale_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        r = pearson(x, y)
        assert pearson(4.0 * x + 2.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(-4.0 * x + 2.0, y) == pytest.approx(-r, abs=1e-12)


def eig2x2(cov):
    """Closed-form eigendecomposition of a symmetric 2x2 matrix."""
    a, b, c = cov[0, 0], cov[0, 1], cov[1, 1]
    tr, det = a + c, a * c - b * b
    disc = np.sqrt(max(tr * tr / 4 - det, 0.0))
    lams = (tr / 2 + disc, tr / 2 - disc)
    vecs = []
    for lam in lams:
        if abs(b) > 1e-300:
            v = np.array([b, lam - a])
        else:
            v = np.array([1.0, 0.0]) if a >= c else np.array([0.0, 1.0])
            if lam == lams[1] and abs(b) <= 1e-300:
                v = np.array([0.0, 1.0]) if a >= c else np.array([1.0, 0.0])
        vecs.append(v / np.linalg.norm(v))
    return lams, vecs


class TestPca:
    def test_points_on_a_line(self):
        X = np.array([[t, 2 * t] for t in np.linspace(-1, 1, 7)])
        res = pca(X, 2)
        direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert abs(abs(res.components[:, 0] @ direction) - 1.0) < 1e-9
        assert res.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_isotropic(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        res = pca(X, 2)
        np.testing.assert_allclose(res.explained_variance, [0.5, 0.5], atol=1e-9)

    def test_against_2x2_closed_form(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.1]])
        res = pca(X, 2)
        Xc = X - X.mean(axis=0)
        lams, vecs = eig2x2(Xc.T @ Xc / len(X))
        np.testing.assert_allclose(res.explained_variance, lams, atol=1e-10)
        for k in range(2):
            assert abs(abs(res.components[:, k] @ vecs[k]) - 1.0) < 1e-8
        # top component is roughly the x axis
        assert abs(res.components[0, 0]) > 0.99

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        res = pca(X, 4)
        gram = res.components.T @ res.components
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)
        assert np.all(np.diff(res.explained_variance) <= 1e-9)

    def test_projection_reproduces_covariance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 5)) * np.array([3.0, 2.0, 1.0, 0.3, 0.1])
        res = pca(X, 3)
        proj_cov = res.projected.T @ res.projected / len(X)
        np.testing.assert_allclose(proj_cov, np.diag(res.explained_variance),
                                   atol=1e-8)

    def test_sign_convention(self):
        X = np.array([[0.0, 0.0], [-1.0, 0.0], [-2.0, 0.1]])
        res = pca(X, 1)
        idx = np.argmax(np.abs(res.components[:, 0]))
        assert res.components[idx, 0] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        a = pca(X, 2)
        b = pca(X, 2)
        np.testing.assert_array_equal(a.components, b.components)


class TestAggregate:
    def test_equal_runs(self):
        rep = aggregate([{"A": 0.8}, {"A": 0.8}])
        assert rep.rows[0][2] == pytest.approx(0.8)
        assert rep.rows[0][3] == pytest.approx(0.0)

    def test_single_run(self):
        rep = aggregate([{"A": 0.9}])
        assert rep.rows[0][3] == 0.0

    def test_population_std(self):
        rep = aggregate([{"A": 0.7}, {"A": 0.9}])
        assert rep.rows[0][2] == pytest.approx(0.8)
        assert rep.rows[0][3] == pytest.approx(0.1)

    def test_csv_and_text(self, tmp_path):
        rep = aggregate([{"A": 0.7, "B": 0.5}, {"A": 0.9, "B": None}],
                        metrics={"A": "AUROC", "B": "AUPRC"})
        out = tmp_path / "report.csv"
        rep.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "task,metric,mean,std"
        assert len(lines) == 3
        text = rep.to_text()
        assert "0.800" in text
