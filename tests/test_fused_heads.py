"""The task-head node against the per-head composition, bit for bit.

``model.head_logits`` runs every head as one node, ``autodiff.task_heads``,
over stacked views of the parameter vector; ``tests/oracles.py`` states the
same heads one at a time with matmul, add, relu and concat. The node must
give the same bits (compared as int64 views) for the logits, the input's
gradient and every head parameter's gradient, for 1, 4 and 13 heads and
batches of 1 and 50 rows.
"""

import dataclasses

import numpy as np
import pytest

import oracles
from mtlmolnet import autodiff as ad
from mtlmolnet import encoder, smiles
from mtlmolnet import model as mdl
from mtlmolnet.config import TrainConfig

CFG = TrainConfig(variant="qw-mtl", hidden=24, ffn_hidden=12)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def model(n_tasks, seed):
    """A model whose every parameter, biases included, is a seeded draw."""
    params = mdl.zero_model(CFG, n_tasks)
    params.store.flat[:] = np.random.default_rng(seed).normal(0.0, 0.3, params.store.flat.size)
    return params


def run(heads_fn, x_data, heads, weight):
    """(logits, x's gradient, each head leaf's gradient) of the loss
    sum(logits * weight) through ``heads_fn``."""
    x = ad.Tensor(x_data, requires_grad=True)
    for leaf in heads.leaves:
        leaf.grad = None
    logits = heads_fn(x, heads)
    ad.tensor_sum(ad.mul(logits, ad.Tensor(weight))).backward()
    return logits.data, x.grad, [leaf.grad for leaf in heads.leaves]


@pytest.mark.parametrize("batch", [1, 50])
@pytest.mark.parametrize("n_tasks", [1, 4, 13])
def test_node_matches_composed_bits(n_tasks, batch):
    params = model(n_tasks, seed=n_tasks)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, CFG.fused_dim))
    weight = rng.normal(size=(batch, n_tasks))
    fused = run(mdl.head_logits, x, params.heads, weight)
    composed = run(oracles.heads_composed, x, params.heads, weight)
    assert_bits_equal(fused[0], composed[0])
    assert_bits_equal(fused[1], composed[1])
    assert len(fused[2]) == len(composed[2]) == 4 * n_tasks
    for leaf, a, b in zip(params.heads.leaves, fused[2], composed[2]):
        assert a.shape == leaf.data.shape
        assert_bits_equal(a, b)
    with ad.no_grad():
        served = mdl.head_logits(ad.Tensor(x), params.heads)
    assert not served.requires_grad
    assert_bits_equal(served.data, fused[0])


def test_heads_are_views_of_the_per_head_leaves():
    params = model(3, seed=0)
    heads = params.heads
    assert (heads.w1.shape, heads.b1.shape, heads.w2.shape, heads.b2.shape) == (
        (3, CFG.fused_dim, CFG.ffn_hidden), (3, CFG.ffn_hidden), (3, CFG.ffn_hidden), (3,))
    for t in range(3):
        head = heads[t]
        for k in ("w1", "b1", "w2", "b2"):
            assert getattr(head, k) is params.store.tensors[f"head{t}.{k}"]
        assert_bits_equal(heads.w1[t], head.w1.data)
        assert_bits_equal(heads.b1[t], head.b1.data)
        assert_bits_equal(heads.w2[t], head.w2.data[:, 0])
        assert_bits_equal(heads.b2[t:t + 1], head.b2.data)
    for stacked in (heads.w1, heads.b1, heads.w2, heads.b2):
        assert np.shares_memory(stacked, params.store.flat)


def test_wrong_fused_width_raises():
    params = model(2, seed=0)
    x = ad.Tensor(np.ones((5, CFG.fused_dim + 1)), requires_grad=True)
    with pytest.raises(ad.ShapeMismatch, match="task_heads"):
        mdl.head_logits(x, params.heads)


def test_pre_activation_overflow_is_named_though_relu_hides_it():
    params = model(3, seed=0)
    params.heads.w1[1] = -1e300
    x = ad.Tensor(np.full((4, CFG.fused_dim), 1e10), requires_grad=True)
    with np.errstate(over="ignore"):
        hidden = x.data @ params.heads.w1[1] + params.heads.b1[1]
        assert np.isneginf(hidden).all()  # relu would map every unit to 0
        with pytest.raises(ad.NonFiniteValue, match=r"^task_heads produced 48 non-finite"):
            mdl.head_logits(x, params.heads)


def test_adam_step_reaches_the_next_forward():
    params = model(4, seed=3)
    x = np.random.default_rng(4).normal(size=(50, CFG.fused_dim))
    weight = np.random.default_rng(5).normal(size=(50, 4))
    optimizer = ad.Adam(params.store, lr=1e-2)
    before = run(mdl.head_logits, x, params.heads, weight)[0]
    optimizer.step()
    after = run(mdl.head_logits, x, params.heads, weight)[0]
    assert (after != before).all()
    assert_bits_equal(after, run(oracles.heads_composed, x, params.heads, weight)[0])


def test_concat_backward_returns_the_views_of_split():
    rng = np.random.default_rng(0)
    for axis in (0, 1, -1):
        parts = [ad.Tensor(rng.normal(size=(3, 4)) if axis == 0 else rng.normal(size=(4, n)),
                           requires_grad=True) for n in (2, 1, 3)]
        out = ad.concat(parts, axis=axis)
        g = rng.normal(size=out.data.shape)
        sizes = [p.data.shape[axis] for p in parts]
        for got, want in zip(out._backward_fn(g), np.split(g, np.cumsum(sizes)[:-1], axis=axis)):
            assert got.base is g and got.shape == want.shape and got.strides == want.strides
            assert got.__array_interface__["data"] == want.__array_interface__["data"]


def test_single_head_pass_is_column_of_the_multi_head_pass():
    # cli bench scores single-task models on one-head slices of the views
    params = model(5, seed=6)
    rng = np.random.default_rng(7)
    mols = ["CCO", "c1ccccc1O", "CC(=O)N", "C1CC1Cl", "N#CC=C"]
    pack = encoder.pack_graphs([smiles.parse_smiles(s) for s in mols])
    rows = np.arange(len(mols))
    features = rng.normal(size=(len(mols), CFG.fused_dim - CFG.hidden))
    multi = mdl.predict_rows(pack, rows, features, params)
    for t in range(5):
        single = dataclasses.replace(params, heads=params.heads[t:t + 1])
        assert len(single.heads) == 1 and single.heads[0].w1 is params.heads[t].w1
        one = mdl.predict_rows(pack, rows, features, single)
        assert_bits_equal(one[:, 0], multi[:, t])
