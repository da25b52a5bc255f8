import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import synth

from mtlmolnet import autodiff as ad
from mtlmolnet import data as dat
from mtlmolnet import features as feat
from mtlmolnet import model as mdl
from mtlmolnet import smiles
from mtlmolnet.autodiff import Tensor, sigmoid
from mtlmolnet.config import TrainConfig
from mtlmolnet.data import Batch, TaskSpec
from mtlmolnet.features import FeatureBlock, feature_matrix
from mtlmolnet.model import (
    EmptyBatchLabels,
    WeightingState,
    batch_loss,
    forward,
    masked_bce,
    task_proportions,
    task_weights,
    total_loss,
    train,
)


def small_cfg(**kw):
    base = dict(variant="qw-mtl", hidden=6, depth=2, ffn_hidden=5,
                epochs=2, batch_size=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def make_batch(smis, labels, valid):
    graphs = [smiles.featurize(smiles.parse_smiles(s)) for s in smis]
    rng = np.random.default_rng(0)
    blocks = [FeatureBlock(phys=rng.normal(size=200), qc=rng.normal(size=4),
                           qc_mask=np.ones(4)) for _ in smis]
    labels = np.asarray(labels, dtype=np.float64)
    valid = np.asarray(valid, dtype=np.float64)
    return Batch(graphs=graphs, feature_blocks=blocks, labels=labels,
                 valid=valid, row_indices=np.arange(len(smis)))


def softplus_inv(y):
    return float(np.log(np.expm1(y)))


class TestTaskProportions:
    def test_counts(self):
        b = make_batch(["C", "CC", "CCO", "CCN"],
                       labels=np.zeros((4, 2)),
                       valid=[[1, 0], [1, 1], [1, 0], [0, 0]])
        np.testing.assert_array_equal(task_proportions(b), [0.75, 0.25])

    def test_single_task(self):
        b = make_batch(["C"], labels=[[1, 0]], valid=[[1, 0]])
        np.testing.assert_array_equal(task_proportions(b), [1.0, 0.0])

    def test_symmetric(self):
        b = make_batch(["C", "CC"], labels=np.zeros((2, 2)), valid=np.ones((2, 2)))
        np.testing.assert_array_equal(task_proportions(b), [0.5, 0.5])

    def test_empty_raises(self):
        b = make_batch(["C"], labels=[[0, 0]], valid=[[0, 0]])
        with pytest.raises(EmptyBatchLabels):
            task_proportions(b)


class TestTaskWeights:
    def test_r_one_gives_one_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = task_weights([1.0], [float(rng.uniform(-5, 5))])
            assert w.data[0] == 1.0

    def test_exponent_one(self):
        w = task_weights([0.5], [softplus_inv(1.0)])
        assert w.data[0] == pytest.approx(0.5, abs=1e-12)

    def test_quarter_squared(self):
        w = task_weights([0.25], [softplus_inv(2.0)])
        assert w.data[0] == pytest.approx(0.0625, abs=1e-12)

    def test_zero_r_gives_zero(self):
        w = task_weights([0.0, 0.5], [0.0, 0.0])
        assert w.data[0] == 0.0
        assert w.data[1] > 0.0

    def test_uniform_mode(self):
        w = task_weights([0.3, 0.0, 0.7], [1.0, 1.0, 1.0], uniform=True)
        np.testing.assert_array_equal(w.data, [1.0, 0.0, 1.0])

    def test_monotone_in_r(self):
        grid = np.linspace(0.01, 1.0, 100)
        w = task_weights(grid, np.zeros(100))
        assert np.all(np.diff(w.data) > 0)

    def test_monotone_decreasing_in_beta(self):
        betas = np.linspace(softplus_inv(0.2), softplus_inv(5.0), 100)
        w = task_weights(np.full(100, 0.5), betas)
        assert np.all(np.diff(w.data) < 0)

    def test_beta_clamped(self):
        st = WeightingState(1, beta_min=0.1, beta_max=6.0)
        st.log_beta = Tensor(np.array([50.0]), requires_grad=True)
        assert st.beta_eff[0] == 6.0
        st.log_beta = Tensor(np.array([-50.0]), requires_grad=True)
        assert st.beta_eff[0] == 0.1

    def test_gradient_reaches_log_beta(self):
        lb = Tensor(np.array([0.3, -0.2]), requires_grad=True)
        w = task_weights([0.25, 0.75], lb)
        w.sum().backward()
        assert lb.grad is not None
        assert np.all(lb.grad != 0)


class TestMaskedBce:
    def test_zero_logit_label_one(self):
        logits = Tensor(np.zeros((1, 1)))
        L = masked_bce(logits, [[1.0]], [[1.0]])
        assert L.data[0] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_large_logit_no_overflow(self):
        logits = Tensor(np.full((1, 1), 20.0))
        L = masked_bce(logits, [[1.0]], [[1.0]])
        # softplus(-20) evaluated directly
        assert L.data[0] == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-12)
        assert L.data[0] == pytest.approx(2.061e-9, rel=1e-3)

    def test_no_valid_labels_zero_loss_and_grad(self):
        w = Tensor(np.array([[0.5], [0.2]]), requires_grad=True)
        logits = mdl.ad.matmul(Tensor(np.ones((3, 2))), w)
        L = masked_bce(logits, np.ones((3, 1)), np.zeros((3, 1)))
        assert L.data[0] == 0.0
        total_loss(L, Tensor(np.ones(1))).backward()
        np.testing.assert_array_equal(w.grad, np.zeros((2, 1)))

    def test_mean_over_valid(self):
        logits = Tensor(np.zeros((4, 1)))
        L = masked_bce(logits, np.ones((4, 1)), [[1], [1], [0], [0]])
        assert L.data[0] == pytest.approx(np.log(2.0), abs=1e-15)


class TestTotalLoss:
    def test_single_task_uniform(self):
        L = Tensor(np.array([0.7]))
        assert total_loss(L, Tensor(np.ones(1))).data.item() == pytest.approx(0.7)

    def test_all_zero(self):
        out = total_loss(Tensor(np.zeros(3)), Tensor(np.ones(3)))
        assert out.data.item() == 0.0

    def test_analytic_log_beta_gradient(self):
        # d total / d log_beta_t = L_t * w_t * ln(r_t) * sigmoid(log_beta_t)
        rng = np.random.default_rng(4)
        r = np.array([0.3, 0.5, 0.2])
        Lv = rng.uniform(0.1, 1.0, size=3)
        lb0 = rng.uniform(-1.0, 1.0, size=3)

        def value(lb):
            w = task_weights(r, lb)
            return total_loss(Tensor(Lv), w).data.item()

        lb = Tensor(lb0, requires_grad=True)
        total_loss(Tensor(Lv), task_weights(r, lb)).backward()

        beta = np.logaddexp(0, lb0)
        analytic = Lv * (r ** beta) * np.log(r) / (1.0 + np.exp(-lb0))
        np.testing.assert_allclose(lb.grad, analytic, atol=1e-12)

        h = 1e-6
        for t in range(3):
            up, dn = lb0.copy(), lb0.copy()
            up[t] += h
            dn[t] -= h
            fd = (value(up) - value(dn)) / (2 * h)
            assert abs(fd - analytic[t]) < 1e-6


class TestForward:
    def test_shapes_and_zero_params(self):
        cfg = small_cfg()
        params = mdl.init_model(cfg, n_tasks=13)
        for _, t in params.named_tensors():
            t.data[:] = 0.0
        b = make_batch(["CCO"], labels=np.ones((1, 13)), valid=np.ones((1, 13)))
        logits = forward(b, params, cfg)
        assert logits.data.shape == (1, 13)
        np.testing.assert_array_equal(logits.data, np.zeros((1, 13)))
        L = masked_bce(logits, b.labels, b.valid)
        np.testing.assert_allclose(L.data, np.log(2.0), atol=1e-15)

    def test_qc_ablated_head_width(self):
        cfg = small_cfg(variant="multi-rdkit")
        params = mdl.init_model(cfg, n_tasks=2)
        assert params.heads[0].w1.data.shape[0] == cfg.hidden + 200
        cfg_full = small_cfg()
        params_full = mdl.init_model(cfg_full, n_tasks=2)
        assert params_full.heads[0].w1.data.shape[0] == cfg_full.hidden + 208

    def test_wrong_variant_features_rejected(self):
        cfg = small_cfg()
        params = mdl.init_model(cfg, n_tasks=2)
        b = make_batch(["CCO"], labels=np.ones((1, 2)), valid=np.ones((1, 2)))
        bad_cfg = small_cfg(variant="multi-rdkit")
        with pytest.raises(mdl.ad.ShapeMismatch):
            forward(b, params, bad_cfg)


class TestParameterStore:
    def test_layout_and_init_draws(self):
        cfg = small_cfg(variant="multi-rdkit")
        params = mdl.init_model(cfg, n_tasks=2, rng=np.random.default_rng(5))
        assert [(n, t.data.shape) for n, t in params.named_tensors()] == cfg.param_shapes(2)
        assert not params.weighting.log_beta.requires_grad
        # Xavier-uniform draws of the 2-D weights in layout order; the rest 0
        rng = np.random.default_rng(5)
        for name, t in params.named_tensors():
            if t.data.ndim == 2:
                limit = np.sqrt(6.0 / sum(t.data.shape))
                expected = rng.uniform(-limit, limit, size=t.data.shape)
            else:
                expected = np.zeros(t.data.shape)
            np.testing.assert_array_equal(t.data.view(np.int64),
                                          expected.view(np.int64), err_msg=name)

    def test_load_data_writes_into_the_views(self):
        cfg = small_cfg()
        params = mdl.init_model(cfg, n_tasks=3)
        tensors = [t for _, t in params.named_tensors()]
        snapshot = params.clone_data()
        assert not np.shares_memory(snapshot, params.store.flat)
        params.store.flat[:] = 7.0
        params.load_data(snapshot)
        np.testing.assert_array_equal(params.store.flat.view(np.int64),
                                      snapshot.view(np.int64))
        for (name, t), before in zip(params.named_tensors(), tensors):
            assert t is before and np.shares_memory(t.data, params.store.flat), name
        for t in (params.encoder.w_msg, params.heads[2].w1, params.weighting.log_beta):
            assert np.shares_memory(t.data, params.store.flat)


def relative_err(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(scale > 1e-8, diff / scale, diff)


class TestGradientIntegrity:
    def test_full_model_finite_difference(self):
        cfg = small_cfg(hidden=5, ffn_hidden=4, depth=2)
        params = mdl.init_model(cfg, n_tasks=2, rng=np.random.default_rng(9))
        batch = make_batch(
            ["CCO", "c1ccccc1"],
            labels=[[1.0, 0.0], [0.0, 1.0]],
            valid=[[1.0, 1.0], [1.0, 0.0]],
        )

        loss, _ = batch_loss(batch, params, cfg)
        loss.backward()
        grads = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                 for name, t in params.named_tensors()}

        h = 1e-5
        worst = 0.0
        for name, t in params.named_tensors():
            for flat in range(t.data.size):
                orig = t.data.flat[flat]
                t.data.flat[flat] = orig + h
                up, _ = batch_loss(batch, params, cfg)
                t.data.flat[flat] = orig - h
                dn, _ = batch_loss(batch, params, cfg)
                t.data.flat[flat] = orig
                fd = (up.data.item() - dn.data.item()) / (2 * h)
                err = relative_err(np.array(grads[name].flat[flat]), np.array(fd))
                worst = max(worst, float(err))
        assert worst < 1e-4, f"max relative error {worst}"


class TestLearnedExponentsOnlyClimb:
    @pytest.mark.parametrize("variant", ["multi-rdkit-beta", "qw-mtl"])
    def test_log_beta_gradient_never_positive(self, variant):
        # d/d log_beta_t of sum_t r_t^beta_t L_t is r_t^beta_t ln(r_t) L_t
        # dbeta_t/dlog_beta_t, and every factor but ln(r_t) <= 0 is >= 0
        cfg = small_cfg(variant=variant, hidden=5, ffn_hidden=4)
        rng = np.random.default_rng(21)
        pool = ["C", "CCO", "c1ccccc1", "CC(=O)O", "C1CC1N", "[NH4+]", "OCC#N", "c1ccncc1"]
        negative = 0
        for _ in range(20):
            params = mdl.init_model(cfg, n_tasks=4, rng=rng)
            params.weighting.log_beta.data[:] = rng.uniform(-8.0, 8.0, size=4)
            n = int(rng.integers(1, 7))
            valid = (rng.random((n, 4)) < 0.6).astype(float)
            valid[0, 0] = 1.0
            labels = rng.integers(0, 2, size=(n, 4)).astype(float) * valid
            batch = make_batch(list(rng.choice(pool, size=n)), labels=labels, valid=valid)
            loss, _ = batch_loss(batch, params, cfg)
            loss.backward()
            grad = params.weighting.log_beta.grad
            assert np.all(grad <= 0.0), grad
            negative += int(np.sum(grad < 0.0))
        assert negative > 0


class TestMaskingSoundness:
    def test_label_flip_under_invalid_mask_is_inert(self):
        cfg = small_cfg(hidden=5, ffn_hidden=4)
        rng = np.random.default_rng(13)
        for _ in range(10):
            params = mdl.init_model(cfg, n_tasks=2, rng=rng)
            valid = rng.integers(0, 2, size=(3, 2)).astype(float)
            if valid.sum() == 0:
                valid[0, 0] = 1.0
            labels = rng.integers(0, 2, size=(3, 2)).astype(float) * valid
            batch = make_batch(["CCO", "CC", "CCN"], labels=labels, valid=valid)

            def run(b):
                loss, _ = batch_loss(b, params, cfg)
                loss.backward()
                out = {n: (t.grad.copy() if t.grad is not None else None)
                       for n, t in params.named_tensors()}
                for _, t in params.named_tensors():
                    t.grad = None
                return loss.data.item(), out

            base_loss, base_grads = run(batch)
            invalid_cells = np.argwhere(valid == 0)
            if len(invalid_cells) == 0:
                continue
            i, t = invalid_cells[rng.integers(len(invalid_cells))]
            flipped = labels.copy()
            flipped[i, t] = 1.0 - flipped[i, t]
            batch2 = Batch(graphs=batch.graphs, feature_blocks=batch.feature_blocks,
                           labels=flipped, valid=valid,
                           row_indices=batch.row_indices)
            flip_loss, flip_grads = run(batch2)
            assert flip_loss == base_loss  # bitwise
            for name in base_grads:
                a, b = base_grads[name], flip_grads[name]
                if a is None:
                    assert b is None
                else:
                    np.testing.assert_array_equal(a, b)


def toy_table(tmp_path, n=20, seed=0):
    """Separable two-task toy set: task A = contains O, task B = contains N."""
    rng = np.random.default_rng(seed)
    rows = []
    pool = ["CCO", "CCCO", "OCCO", "CC(O)C", "CCOC",
            "CCN", "CCCN", "NCCN", "CC(N)C", "CCNC",
            "CCC", "CCCC", "CC(C)C", "CCCCC", "CC"]
    for i in range(n):
        smi = pool[i % len(pool)]
        a = int("O" in smi)
        b = int("N" in smi)
        split = "train" if i % 5 < 4 else "val"
        rows.append(f"{smi},{a},{split},{b},{split},1")
    p = tmp_path / "toy.csv"
    p.write_text("smiles,A,A_split,B,B_split,fold\n" + "\n".join(rows) + "\n")
    specs = [TaskSpec("A", "AUROC", "A", "A_split"),
             TaskSpec("B", "AUROC", "B", "B_split")]
    return dat.load_dataset(p, specs)


class TestTrain:
    def test_overfit_separable(self, tmp_path):
        table = toy_table(tmp_path)
        cfg = small_cfg(hidden=12, ffn_hidden=16, epochs=50, batch_size=8,
                        lr=5e-3, variant="qw-mtl")
        result = train(table, cfg)
        last = [h for h in result.history if h["epoch"] == cfg.epochs - 1]
        for row in last:
            assert row["loss"] < 0.1, row

    def test_epochs_zero_keeps_init(self, tmp_path):
        table = toy_table(tmp_path)
        cfg = small_cfg(epochs=0)
        result = train(table, cfg)
        fresh = mdl.init_model(cfg, table.n_tasks, np.random.default_rng(cfg.seed))
        for (name, a), (_, b) in zip(result.params.named_tensors(),
                                     fresh.named_tensors()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_same_seed_identical_history(self, tmp_path):
        table1 = toy_table(tmp_path)
        table2 = toy_table(tmp_path)
        cfg = small_cfg(epochs=3)
        h1 = train(table1, cfg).history
        h2 = train(table2, cfg).history
        assert len(h1) == len(h2)
        for a, b in zip(h1, h2):
            assert a == b

    def test_no_parameter_gradient_between_steps(self, tmp_path, monkeypatch):
        # a step's gradients are dropped once Adam has read them: none is
        # held while the next batch is gathered or during validation
        table = toy_table(tmp_path)
        models, held, stepped = [], [], []
        init, batches, evaluate, step = (mdl.init_model, dat.make_batches,
                                         mdl.evaluate_split, ad.Adam.step)

        def graded():
            return [name for name, t in models[0].named_tensors() if t.grad is not None]

        def init_model(*args):
            models.append(init(*args))
            return models[-1]

        def make_batches(*args, **kwargs):
            for batch in batches(*args, **kwargs):
                held.append(graded())
                yield batch
            held.append(graded())

        def evaluate_split(*args):
            held.append(graded())
            return evaluate(*args)

        def adam_step(self):
            stepped.append(graded())
            step(self)

        monkeypatch.setattr(mdl, "init_model", init_model)
        monkeypatch.setattr(dat, "make_batches", make_batches)
        monkeypatch.setattr(mdl, "evaluate_split", evaluate_split)
        monkeypatch.setattr(ad.Adam, "step", adam_step)
        train(table, small_cfg(epochs=2))
        assert len(stepped) == 8 and all(stepped)
        assert len(held) == 12 and not any(held)
        assert graded() == []

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_descriptor_matrix_built_once(self, tmp_path, monkeypatch, epochs):
        # validation takes its rows of the matrix training built
        calls = []
        build = feat.feature_matrix

        def feature_matrix(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(feat, "feature_matrix", feature_matrix)
        train(toy_table(tmp_path), small_cfg(epochs=epochs))
        assert len(calls) == 1

    @pytest.mark.parametrize("variant", ["qw-mtl", "multi-rdkit-beta"])
    def test_block_list_trains_like_the_record(self, tmp_path, variant):
        # a table whose record was replaced by its per-molecule blocks, as
        # perfbench's train workloads restore it, trains to the same bits
        qc = synth.write_qc_csv(tmp_path / "qc.csv", toy_table(tmp_path).smiles, seed=2)
        keys = ("loss", "r", "beta_eff", "w", "val_metric")
        runs = []
        for as_list in (False, True):
            table = dat.prepare_table(toy_table(tmp_path), qc_path=qc)
            if as_list:
                table.blocks = list(table.blocks)
            result = train(table, small_cfg(variant=variant, epochs=3))
            runs.append((
                [(row["epoch"], row["task"]) for row in result.history],
                np.array([[row[k] for k in keys] for row in result.history], dtype=float),
                result.params.store.flat.copy(),
                result.best_epoch,
            ))
        (names_a, hist_a, flat_a, best_a), (names_b, hist_b, flat_b, best_b) = runs
        assert names_a == names_b and best_a == best_b
        np.testing.assert_array_equal(hist_a.view(np.int64), hist_b.view(np.int64))
        np.testing.assert_array_equal(flat_a.view(np.int64), flat_b.view(np.int64))

    def test_uniform_variant_weights_binary(self, tmp_path):
        table = toy_table(tmp_path)
        cfg = small_cfg(variant="multi-rdkit", epochs=2)
        result = train(table, cfg)
        for row in result.history:
            assert row["w"] in (0.0, 1.0)


class TestPredict:
    def test_probabilities_in_unit_interval(self, tmp_path):
        table = toy_table(tmp_path)
        cfg = small_cfg(epochs=1)
        result = train(table, cfg)
        probs = mdl.predict_blocks(table.pack.graphs, table.blocks, result.params, cfg)
        assert probs.shape == (table.n_rows, 2)
        assert np.all((probs > 0) & (probs < 1))

    def test_zero_logits_half(self, tmp_path):
        cfg = small_cfg()
        params = mdl.init_model(cfg, n_tasks=3)
        for _, t in params.named_tensors():
            t.data[:] = 0.0
        b = make_batch(["CCO", "CC"], labels=np.zeros((2, 3)), valid=np.ones((2, 3)))
        probs = mdl.predict_blocks(b.graphs, b.feature_blocks, params, cfg)
        np.testing.assert_array_equal(probs, np.full((2, 3), 0.5))

    def test_serving_equals_training_forward(self, tmp_path):
        # predict_rows and forward share one encode -> fuse -> heads body:
        # on the same gathered rows they give the same bits
        table = dat.prepare_table(toy_table(tmp_path))
        cfg = small_cfg(epochs=1)
        result = train(table, cfg)
        features = feature_matrix(table.blocks, use_qc=cfg.use_qc, stats=result.stats)
        view = dat.select_split(table, "train")
        batches = dat.make_batches(view, 7, np.random.default_rng(3), features=features)
        for batch in batches:
            served = mdl.predict_rows(table.pack, batch.row_indices,
                                      features[batch.row_indices], result.params)
            trained = sigmoid(forward(batch, result.params, cfg)).data
            assert served.view(np.int64).tolist() == trained.view(np.int64).tolist()

    def test_serving_keeps_no_tape(self):
        # traced heap peak of a warm call over 200 molecules of 10-40 atoms
        # at hidden 300 (x86-64, numpy 2): 480 MiB while serving recorded a
        # tape and held every chunk's intermediates, 182 MiB without one
        rng = np.random.default_rng(0)
        mols = [synth.random_molecule(rng, 10, 40) for _ in range(200)]
        pack, blocks = dat.prepare_molecules(mols)
        features = feature_matrix(blocks, use_qc=False)
        cfg = TrainConfig(variant="multi-rdkit", hidden=300, depth=3, ffn_hidden=300)
        params = mdl.init_model(cfg, n_tasks=13)
        rows = np.arange(len(mols))
        mdl.predict_rows(pack, rows, features, params)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            mdl.predict_rows(pack, rows, features, params)
            peak_mib = (tracemalloc.get_traced_memory()[1] - held) / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mib < 300, f"{peak_mib:.0f} MiB traced heap peak"

    def test_predict_deterministic(self, tmp_path):
        table = toy_table(tmp_path)
        cfg = small_cfg(epochs=1)
        result = train(table, cfg)
        a = mdl.predict_blocks(table.pack.graphs, table.blocks, result.params, cfg)
        b = mdl.predict_blocks(table.pack.graphs, table.blocks, result.params, cfg)
        np.testing.assert_array_equal(a, b)
