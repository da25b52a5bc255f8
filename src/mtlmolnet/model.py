"""Model assembly, adaptive task-weighted loss, and the training loop.

One shared encoder feeds every task head. Per batch, each task's mean
binary cross-entropy over its valid labels is weighted by

    w_t = r_t ** beta_t,   beta_t = clamp(softplus(log_beta_t), lo, hi)

where r_t is the task's share of the batch's valid labels. The exponents
log_beta_t are ordinary parameters updated by the same optimizer as the
network; tasks with no labels in a batch get w_t = 0 and contribute
nothing. The clamp matters: since every r_t < 1, an unbounded exponent
would drive all weights to zero, minimizing the total loss trivially. The
loss's derivative in log_beta_t, r_t ** beta_t * ln(r_t) * L_t times the
slope of beta_t, is never positive, so gradient descent can only raise each
beta_t until beta_max stops it.

With uniform weighting, w_t is 1 for every task present in the batch.
A model's parameters are views into one ``ParamStore`` vector, so the best
epoch's snapshot is one copy of it, and the heads run as one autodiff node
over stacked views of their stretch of it (``TaskHeads``). Training's
``forward`` and serving's ``predict_rows`` run one encode -> fuse -> heads
body; serving keeps no tape.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import encoder as enc
from . import features as feat
from . import metrics as met
from .autodiff import Tensor
from .tables import DatasetError


CHUNK = 200  # molecules per encoder pass when scoring or embedding


class EmptyBatchLabels(ValueError):
    pass


class NonFiniteLoss(ad.NonFiniteValue):
    pass


class CheckpointMismatch(DatasetError):
    pass


@dataclass
class HeadParams:
    """Two-layer feedforward head: relu hidden layer, scalar logit out."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class TaskHeads:
    """The T task heads as views of their blocks of the parameter vector
    (w1 [D x F], b1 [F], w2 [F x 1] and b2 [1] per head, as
    ``TrainConfig.param_shapes`` lays them out), stacked: ``w1`` [T x D x F],
    ``b1`` [T x F], ``w2`` [T x F] and ``b2`` [T]. ``leaves`` are the heads'
    parameter Tensors in layout order. ``heads[t]`` is head t's
    ``HeadParams``; a slice, such as ``heads[a:b]``, selects heads on the same
    views."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    leaves: list

    def __len__(self):
        return len(self.b2)

    def __getitem__(self, key):
        picked = range(len(self))[key]
        if isinstance(key, slice):
            return TaskHeads(self.w1[key], self.b1[key], self.w2[key], self.b2[key],
                             [leaf for t in picked for leaf in self.leaves[4 * t:4 * t + 4]])
        return HeadParams(*self.leaves[4 * picked:4 * picked + 4])

    @classmethod
    def of_store(cls, store, n_tasks, d, f):
        """The heads of ``store``, ``head0.w1`` onwards, for ``n_tasks``
        heads of input width ``d`` and hidden width ``f``."""
        start, width = store.starts.get("head0.w1", 0), d * f + 2 * f + 1
        block = store.flat[start:start + n_tasks * width].reshape(n_tasks, width)
        leaves = [store.tensors[f"head{t}.{k}"] for t in range(n_tasks)
                  for k in ("w1", "b1", "w2", "b2")]
        return cls(block[:, :d * f].reshape(n_tasks, d, f), block[:, d * f:d * f + f],
                   block[:, d * f + f:-1], block[:, -1], leaves)


class WeightingState:
    """Learnable per-task loss-weight exponents."""

    def __init__(self, n_tasks, beta_min=0.1, beta_max=6.0, uniform=False,
                 log_beta=None):
        if log_beta is None:
            log_beta = Tensor(np.zeros(n_tasks), requires_grad=not uniform)
        self.log_beta = log_beta
        self.beta_min = beta_min
        self.beta_max = beta_max
        self.uniform = uniform

    @property
    def beta_eff(self):
        raw = np.logaddexp(0.0, self.log_beta.data)  # softplus
        return np.clip(raw, self.beta_min, self.beta_max)

    def weights(self, r):
        """Tape tensor of task weights for batch proportions ``r``.

        w_t = r_t ** beta_t for r_t > 0 and exactly 0 for absent tasks
        (the r -> 0 limit, since beta_t > 0). Gradient reaches log_beta
        only through present tasks.
        """
        present = (r > 0).astype(np.float64)
        if self.uniform:
            return Tensor(present)
        beta = ad.clamp(ad.softplus(self.log_beta), self.beta_min, self.beta_max)
        safe_r = np.where(r > 0, r, 1.0)
        return ad.mul(ad.pow_elem(Tensor(safe_r), beta), Tensor(present))


@dataclass
class ModelParams:
    """The encoder, the task heads and the loss weighting of one model.
    Their tensors are the views of ``store``, in the order of
    ``TrainConfig.param_shapes``."""

    encoder: enc.EncoderParams
    heads: TaskHeads
    weighting: WeightingState
    store: ad.ParamStore

    def named_tensors(self):
        return list(self.store.tensors.items())

    def clone_data(self):
        return self.store.flat.copy()

    def load_data(self, snapshot):
        self.store.flat[...] = snapshot


def zero_model(cfg, n_tasks, flat=None):
    """A model of ``cfg``'s parameter layout with every parameter 0, or with
    its parameters as views into ``flat``, a float64 vector of the layout's
    size, when given (see ``autodiff.ParamStore``)."""
    store = ad.ParamStore(cfg.param_shapes(n_tasks), flat)
    t = store.tensors
    t["log_beta"].requires_grad = cfg.learnable_beta
    heads = TaskHeads.of_store(store, n_tasks, cfg.fused_dim, cfg.ffn_hidden)
    weighting = WeightingState(n_tasks, beta_min=cfg.beta_min, beta_max=cfg.beta_max,
                               uniform=not cfg.learnable_beta, log_beta=t["log_beta"])
    return ModelParams(encoder=enc.encoder_params(t, cfg), heads=heads,
                       weighting=weighting, store=store)


def init_model(cfg, n_tasks, rng=None):
    """A fresh model: Xavier-uniform weights drawn in layout order, biases
    and ``log_beta`` at 0."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    params = zero_model(cfg, n_tasks)
    enc.init_weights(params.store.tensors.values(), rng)
    return params


def task_proportions(batch):
    """Per-task share of the batch's valid labels: n_t / sum_j n_j."""
    counts = batch.valid.sum(axis=0)
    total = counts.sum()
    if total <= 0:
        raise EmptyBatchLabels("batch carries no valid labels")
    return counts / total


def task_weights(r, log_beta, beta_min=0.1, beta_max=6.0, uniform=False):
    """Functional form of WeightingState.weights for given log exponents."""
    if not isinstance(log_beta, Tensor):
        log_beta = Tensor(np.asarray(log_beta, dtype=np.float64), requires_grad=True)
    state = WeightingState(len(r), beta_min=beta_min, beta_max=beta_max,
                           uniform=uniform, log_beta=log_beta)
    return state.weights(np.asarray(r, dtype=np.float64))


def masked_bce(logits, labels, valid):
    """Per-task mean BCE over valid labels, from logits; [T] tensor.

    Uses the logits form softplus(x) - x*y, which never overflows. Tasks
    with no valid labels get exactly 0 loss and no gradient.
    """
    labels = np.asarray(labels, dtype=np.float64)
    valid = np.asarray(valid, dtype=np.float64)
    if logits.data.shape != labels.shape or labels.shape != valid.shape:
        raise ad.ShapeMismatch(
            f"masked_bce: logits {logits.data.shape}, labels {labels.shape}, "
            f"valid {valid.shape}"
        )
    counts = valid.sum(axis=0)
    inv_n = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    elem = ad.sub(ad.softplus(logits), ad.mul(logits, Tensor(labels)))
    per_task = ad.tensor_sum(ad.mul(elem, Tensor(valid)), axis=0)
    return ad.mul(per_task, Tensor(inv_n))


def total_loss(per_task_loss, weights):
    """Scalar sum_t w_t * L_t."""
    return ad.tensor_sum(ad.mul(per_task_loss, weights))


def head_logits(x, heads):
    """Logits [B x T] of the ``TaskHeads`` on the fused input ``x``, one
    column per head, as one autodiff node."""
    return ad.task_heads(x, heads.w1, heads.b1, heads.w2, heads.b2, heads.leaves)


def _fused_logits(graphs, union, features, params):
    """Encode the graphs, fuse the fingerprint with their standardized
    descriptor rows and run the heads; the body of training's ``forward``
    and of ``predict_rows``."""
    z = enc.encode_batch(graphs, params.encoder, union=union)
    return head_logits(ad.concat([z, Tensor(features)], axis=1), params.heads)


def forward(batch, params, cfg):
    """Logits [B x T]; every head evaluates every molecule (validity only
    affects the loss)."""
    feats = batch.features
    if feats is None:
        feats = feat.feature_matrix(batch.feature_blocks, use_qc=cfg.use_qc)
    return _fused_logits(batch.graphs, batch.union, feats, params)


def batch_loss(batch, params, cfg):
    """Forward + weighted loss for one batch; returns (loss, parts)."""
    logits = forward(batch, params, cfg)
    r = task_proportions(batch)
    losses = masked_bce(logits, batch.labels, batch.valid)
    weights = params.weighting.weights(r)
    return total_loss(losses, weights), {
        "r": r,
        "task_loss": losses.data.copy(),
        "w": weights.data.copy(),
    }


@dataclass
class TrainResult:
    params: ModelParams
    history: list  # dicts: epoch, task, loss, r, beta_eff, w, val_metric
    best_epoch: int
    stats: feat.FeatureStats


def train(table, cfg, progress=None):
    """Train on the table's train split, selecting by mean validation metric.

    The table must be loaded; features are prepared (built-in descriptors)
    if missing. The table's descriptor record stays raw: it is standardized
    once into a matrix whose rows batches and validation take. Returns the
    best parameters, per-epoch history rows and the training-split feature
    statistics needed to standardize new inputs.
    """
    if table.pack is None or table.blocks is None:
        data_mod.prepare_table(table)

    train_view = data_mod.select_split(table, "train")
    if len(train_view) == 0:
        raise data_mod.EmptyDataset("train split is empty")
    stats = feat.fit_stats(table.blocks, indices=train_view.rows)
    stats.phys_source = table.phys_source
    features = feat.feature_matrix(table.blocks, use_qc=cfg.use_qc, stats=stats)

    val_view = data_mod.select_split(table, "val")

    rng = np.random.default_rng(cfg.seed)
    params = init_model(cfg, table.n_tasks, rng)
    optimizer = ad.Adam(params.store, lr=cfg.lr)

    history = []
    best_epoch = 0
    best_metric = -np.inf
    best_snapshot = params.clone_data()

    n_tasks = table.n_tasks
    for epoch in range(cfg.epochs):
        loss_sums = np.zeros(n_tasks)
        loss_counts = np.zeros(n_tasks)
        r_sums = np.zeros(n_tasks)
        w_sums = np.zeros(n_tasks)
        n_batches = 0
        try:
            for batch in data_mod.make_batches(train_view, cfg.batch_size, rng,
                                               features=features):
                loss, parts = batch_loss(batch, params, cfg)
                loss.backward()
                optimizer.step()
                optimizer.zero_grad()  # no leaf gradient outlives its step
                present = parts["r"] > 0
                loss_sums[present] += parts["task_loss"][present]
                loss_counts[present] += 1
                r_sums += parts["r"]
                w_sums += parts["w"]
                n_batches += 1
        except ad.NonFiniteValue as err:
            raise NonFiniteLoss(f"epoch {epoch}: {err}") from err

        val_scores = evaluate_split(table, params, "val", features) if len(val_view) else {}
        usable = [v for v in val_scores.values() if v is not None]
        mean_metric = float(np.mean(usable)) if usable else 0.0
        if mean_metric > best_metric:
            best_metric = mean_metric
            best_epoch = epoch
            best_snapshot = params.clone_data()

        beta_eff = params.weighting.beta_eff
        for t, spec in enumerate(table.specs):
            denom = max(loss_counts[t], 1)
            history.append({
                "epoch": epoch,
                "task": spec.name,
                "loss": loss_sums[t] / denom,
                "r": r_sums[t] / max(n_batches, 1),
                "beta_eff": beta_eff[t],
                "w": w_sums[t] / max(n_batches, 1),
                "val_metric": val_scores.get(spec.name),
            })
        if progress is not None:
            progress(epoch, history[-n_tasks:])

    params.load_data(best_snapshot)
    return TrainResult(params=params, history=history, best_epoch=best_epoch,
                       stats=stats)


def predict_blocks(graphs, blocks, params, cfg):
    """Probabilities [N x T] for parsed graphs and their standardized
    blocks; ``predict_rows`` on a pack of the graphs."""
    return predict_rows(enc.pack_graphs(graphs), np.arange(len(graphs)),
                        feat.feature_matrix(blocks, use_qc=cfg.use_qc), params)


def _chunks(pack, rows):
    """(graphs, UnionGraph, slice of ``rows``) of ``pack`` for each run of
    at most ``CHUNK`` of ``rows``."""
    for start in range(0, len(rows), CHUNK):
        part = slice(start, start + CHUNK)
        yield [pack.graphs[r] for r in rows[part]], pack.gather(rows[part]), part


@ad.no_grad()
def predict_rows(pack, rows, features, params):
    """Probabilities for the graphs of ``pack`` at ``rows``, whose
    standardized descriptor rows are ``features``."""
    return np.concatenate([
        ad.sigmoid(_fused_logits(graphs, union, features[part], params)).data
        for graphs, union, part in _chunks(pack, rows)])


@ad.no_grad()
def embed_rows(pack, rows, encoder):
    """Fingerprints [len(rows) x H] of the graphs of ``pack`` at ``rows``."""
    return np.concatenate([enc.encode_batch(graphs, encoder, union=union).data
                           for graphs, union, _ in _chunks(pack, rows)])


def evaluate_split(table, params, split, features):
    """Per-task metric on a split, scored on its rows of the table's
    standardized descriptor matrix ``features``; None where undefined."""
    view = data_mod.select_split(table, split)
    if len(view) == 0:
        return {spec.name: None for spec in table.specs}
    probs = predict_rows(table.pack, view.rows, features[view.rows], params)
    labels = table.labels[view.rows]
    out = {}
    for t, spec in enumerate(table.specs):
        mask = view.valid[:, t] > 0
        if not mask.any():
            out[spec.name] = None
            continue
        y = labels[mask, t]
        s = probs[mask, t]
        try:
            if spec.metric == "AUROC":
                out[spec.name] = met.auroc(s, y)
            else:
                out[spec.name] = met.auprc(s, y)
        except (met.SingleClass, met.NoPositives):
            out[spec.name] = None
    return out
