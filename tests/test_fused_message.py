"""The fused message-passing step against the composed one, bit for bit.

``encoder.encode_batch`` runs each step as ``autodiff.message`` and
``autodiff.add_relu``; ``tests/oracles.py`` states the same step with one
elementary autodiff op per node. With the oracle patched in, the encoder
must give the same bits (compared as int64 views) for the forward pass
under ``no_grad``, the recorded forward pass and every encoder gradient, at
depths 1-4, over a seeded pool of benchmark molecules and the graphs with
no edges or more than one component.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from mtlmolnet import autodiff as ad
from mtlmolnet import encoder, smiles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import molgen  # noqa: E402

EDGE_CASES = ["C", "C.C", "C1.C1", "[Na+].[Cl-]"]
BATCH = 50


@pytest.fixture(scope="module")
def pack():
    rng = np.random.default_rng(13)
    pool = [m.smiles for m in molgen.molecules(rng, 500, 3, 40)] + EDGE_CASES
    return encoder.pack_graphs([smiles.parse_smiles(s) for s in pool])


def batches(pack):
    rows = np.random.default_rng(17).permutation(len(pack.graphs))
    # the edge cases also alone, as a batch with no edges at all
    return [rows[i:i + BATCH] for i in range(0, len(rows), BATCH)] + [[500], [500, 501]]


def run(pack, params, taped):
    """(fingerprint bits per batch, encoder gradients) of the encoder as
    it stands; each batch's loss weighs the fingerprint by a seeded array."""
    outs = []
    for p in (params.w_in, params.w_msg, params.w_out):
        p.grad = None
    for i, rows in enumerate(batches(pack)):
        graphs = [pack.graphs[r] for r in rows]
        if not taped:
            with ad.no_grad():
                z = encoder.encode_batch(graphs, params, pack.gather(rows))
            assert not z.requires_grad
            outs.append(z.data.copy())
            continue
        z = encoder.encode_batch(graphs, params, pack.gather(rows))
        weight = np.random.default_rng(i).normal(size=z.data.shape)
        ad.tensor_sum(ad.mul(z, ad.Tensor(weight))).backward()
        outs.append(z.data.copy())
    grads = [p.grad for p in (params.w_in, params.w_msg, params.w_out)] if taped else []
    return outs, grads


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("taped", [False, True], ids=["no_grad", "taped"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_fused_step_matches_composed_bits(pack, monkeypatch, depth, taped):
    params = encoder.init_encoder_params(smiles.ATOM_FEATURE_DIM, smiles.BOND_FEATURE_DIM,
                                         24, depth, np.random.default_rng(depth))
    fused_out, fused_grads = run(pack, params, taped)
    monkeypatch.setattr(ad, "message", oracles.message_composed)
    monkeypatch.setattr(ad, "add_relu", oracles.add_relu_composed)
    composed_out, composed_grads = run(pack, params, taped)
    assert len(fused_out) == len(composed_out) == 13
    for a, b in zip(fused_out, composed_out):
        assert_bits_equal(a, b)
    if depth == 1 and taped:
        # no step runs, so w_msg gets no gradient
        assert fused_grads[1] is None and composed_grads[1] is None
        del fused_grads[1], composed_grads[1]
    for a, b in zip(fused_grads, composed_grads):
        assert np.any(a != 0)
        assert_bits_equal(a, b)
