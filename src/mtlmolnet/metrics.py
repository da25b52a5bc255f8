"""Classification metrics, correlation, PCA, and multi-run aggregation.

AUROC is the Mann-Whitney statistic: the probability that a random
positive outscores a random negative, ties counted one half. AUPRC is
average precision over positives in descending score order; ties keep
their input order under a stable descending sort, which is the documented
(and deterministic) convention since average precision is sensitive to it.

PCA takes the eigendecomposition (``np.linalg.eigh``) of the centered
population covariance; each component's sign is fixed so its
largest-magnitude entry is positive.
"""

from dataclasses import dataclass

import numpy as np

from . import tables


class MetricError(ValueError):
    pass


class SingleClass(MetricError):
    pass


class NoPositives(MetricError):
    pass


class ConstantInput(MetricError):
    pass


def _tie_runs(sorted_scores):
    """(first, last) index arrays of each run of equal values in a sorted
    array."""
    ends = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1])
    return (np.concatenate([[0], ends + 1]),
            np.concatenate([ends, [len(sorted_scores) - 1]]))


def auroc(scores, labels):
    """Rank-based AUROC with average ranks for tied scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUROC needs both classes present")

    order = np.argsort(scores, kind="stable")
    first, last = _tie_runs(scores[order])
    ranks = np.empty(len(scores))
    # average 1-based rank over each tie run [first, last]
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)

    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auprc(scores, labels):
    """Average precision: sum over positives of precision-at-cut / n_pos.

    A cut sits at each distinct score value, so tied scores share one cut
    and every positive in the tie gets the block-boundary precision; with
    all scores equal this gives exactly prevalence. This matches the usual
    step-wise precision-recall area.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise NoPositives("AUPRC needs at least one positive")

    order = np.argsort(-scores, kind="stable")
    first, last = _tie_runs(scores[order])
    block_pos = np.add.reduceat((labels[order] == 1).astype(np.int64), first)
    # cumsum adds the runs' terms in order, as a running sum would
    ap = np.cumsum(block_pos * np.cumsum(block_pos) / (last + 1))[-1]
    return float(ap / n_pos)


def pearson(x, y):
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise MetricError(f"pearson: shape mismatch {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ConstantInput("pearson needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt((dx * dx).sum())
    sy = np.sqrt((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        raise ConstantInput("pearson undefined for a constant vector")
    return float((dx * dy).sum() / (sx * sy))


@dataclass
class PcaResult:
    components: np.ndarray  # [d x k], orthonormal columns
    explained_variance: np.ndarray  # [k], non-increasing
    projected: np.ndarray  # [n x k]


def pca(X, k):
    """Top-k principal axes of X from ``np.linalg.eigh`` of the centered
    population covariance.

    The explained variances are its k largest eigenvalues, in descending
    order and clamped at 0; the components are orthonormal, and each one's
    sign is fixed so its largest-magnitude entry is positive.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise MetricError("pca needs at least two rows")
    if not (1 <= k <= min(n, d)):
        raise MetricError(f"pca: k={k} out of range for {n}x{d} data")

    Xc = X - X.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh((Xc.T @ Xc) / n)  # ascending
    components = eigvecs[:, ::-1][:, :k]
    top = np.argmax(np.abs(components), axis=0)
    components = components * np.where(components[top, np.arange(k)] < 0, -1.0, 1.0)
    return PcaResult(components=components,
                     explained_variance=np.maximum(eigvals[::-1][:k], 0.0),
                     projected=Xc @ components)


@dataclass
class MetricsReport:
    """Per-task aggregation across runs: mean and population std."""

    rows: list  # (task, metric, mean, std)

    def to_csv(self, path):
        tables.write_csv(path, ["task", "metric", "mean", "std"], self.rows)

    def to_text(self):
        widths = [max(len(str(r[0])) for r in self.rows) if self.rows else 4, 6]
        lines = [f"{'task'.ljust(widths[0])}  metric  mean±std"]
        for task, metric, mean, std in self.rows:
            lines.append(f"{task.ljust(widths[0])}  {metric:<6}  {mean:.3f}±{std:.3f}")
        return "\n".join(lines)


def aggregate(runs, metrics=None):
    """Aggregate per-run {task: score} dicts into a MetricsReport.

    ``metrics`` optionally maps task -> metric name for the report rows.
    Runs where a task is missing or None are skipped for that task.
    """
    if not runs:
        raise MetricError("aggregate needs at least one run")
    tasks = []
    for run in runs:
        for task in run:
            if task not in tasks:
                tasks.append(task)
    rows = []
    for task in tasks:
        vals = [run[task] for run in runs if run.get(task) is not None]
        name = (metrics or {}).get(task, "score")
        if vals:
            arr = np.asarray(vals, dtype=np.float64)
            rows.append((task, name, float(arr.mean()), float(arr.std())))
        else:
            rows.append((task, name, float("nan"), float("nan")))
    return MetricsReport(rows=rows)
