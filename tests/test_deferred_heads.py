"""The heads' w1 gradients are deferred terms, formed after the encoder's
backward.

``autodiff.task_heads`` returns each head's w1 gradient as a deferred term,
which ``Tensor.backward`` calls after the last node: the stacked
[T x D x F] gradient is formed by one matmul once the rest of the tape is
freed, not held through the encoder's backward. The leaf gradients keep
the bits of a walk that keeps the whole tape (``oracles.backward_keep_tape``).
"""

import tracemalloc

import numpy as np

import oracles
from mtlmolnet import autodiff as ad
from mtlmolnet import config, data, encoder, model, smiles
from mtlmolnet.autodiff import Tensor

SMILES = ["CCO", "c1ccccc1O", "CC(=O)Nc1ccc(O)cc1", "C1CCNCC1", "OC(=O)c1ccccc1",
          "CCN(CC)CC", "c1ccncc1", "CC(C)Cc1ccc(C)cc1"]


def batch_and_params(hidden=24, n_tasks=5):
    """A batch of ``SMILES`` with seeded labels and descriptors, and a
    model with seeded parameters, biases included."""
    cfg = config.TrainConfig(hidden=hidden, ffn_hidden=hidden // 2)
    pack = encoder.pack_graphs([smiles.parse_smiles(s) for s in SMILES])
    rng = np.random.default_rng(3)
    rows = np.arange(len(SMILES))
    batch = data.Batch(
        graphs=list(pack.graphs), feature_blocks=None,
        labels=(rng.random((len(rows), n_tasks)) < 0.5).astype(np.float64),
        valid=(rng.random((len(rows), n_tasks)) < 0.8).astype(np.float64), row_indices=rows,
        features=rng.normal(size=(len(rows), cfg.fused_dim - cfg.hidden)),
        union=pack.gather(rows))
    params = model.zero_model(cfg, n_tasks)
    params.store.flat[:] = np.random.default_rng(4).normal(0.0, 0.3, params.store.flat.size)
    return batch, params, cfg


def test_whole_model_gradients_match_a_kept_tape_bitwise():
    grads = []
    for walk in (Tensor.backward, oracles.backward_keep_tape):
        batch, params, cfg = batch_and_params()
        loss, _ = model.batch_loss(batch, params, cfg)
        walk(loss)
        grads.append({name: t.grad for name, t in params.store.tensors.items()})
    freed, kept = grads
    assert freed.keys() == kept.keys() and any(k.endswith(".w1") for k in freed)
    for name, g in freed.items():
        assert g is not None and kept[name] is not None, name
        np.testing.assert_array_equal(g.view(np.int64), kept[name].view(np.int64), err_msg=name)


def test_no_head_w1_holds_a_gradient_while_the_encoder_backward_runs(monkeypatch):
    batch, params, cfg = batch_and_params()
    w1 = params.heads.leaves[0::4]
    seen = []  # per backward closure run: (is a message step, any w1 grad set)
    messages, message = [], ad.message

    def spy_message(*args):
        out = message(*args)
        messages.append(out)
        return out

    monkeypatch.setattr(ad, "message", spy_message)
    loss, _ = model.batch_loss(batch, params, cfg)
    for node in ad._toposort(loss):
        fn = node._backward_fn
        if fn is None:
            continue

        def spy(g, fn=fn, step=any(node is m for m in messages)):
            seen.append((step, any(leaf.grad is not None for leaf in w1)))
            return fn(g)

        node._backward_fn = spy
    loss.backward()
    assert sum(step for step, _ in seen) == len(messages) == cfg.depth - 1
    assert not any(held for _, held in seen)
    assert all(leaf.grad is not None for leaf in w1)


def test_backward_peak_leaves_out_the_stacked_w1_gradient():
    # traced heap of a 20-op chain over 1000x100 arrays (800 kB each, x86-64,
    # numpy 2), pooled into 20 rows for 13 heads of 100x600, whose stacked w1
    # gradient is 7.8 of those units: backward peaked 9.8 units above the
    # tape while that gradient was held through the chain, 2.4 once deferred
    rng = np.random.default_rng(0)
    rows, width, pooled, n_heads, ffn = 1000, 100, 20, 13, 600
    x = Tensor(rng.normal(size=(rows, width)), requires_grad=True)
    w = Tensor(rng.normal(size=(width, width)) * 0.1, requires_grad=True)
    stacked = [rng.normal(size=shape) * 0.1 for shape in
               ((n_heads, width, ffn), (n_heads, ffn), (n_heads, ffn), (n_heads,))]
    leaves = [Tensor(a[t] if a.ndim > 1 else a[t:t + 1], requires_grad=True)
              for t in range(n_heads) for a in stacked]
    molecule = np.arange(rows) % pooled
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = x
        for i in range(20):
            h = ad.relu(ad.matmul(h, w)) if i % 2 else ad.add(h, x)
        loss = ad.task_heads(ad.scatter_add(h, molecule, pooled), *stacked, leaves).sum()
        del h
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(leaf.grad is not None for leaf in leaves)
    assert peak < tape + 4 * x.data.nbytes, (tape, peak)
