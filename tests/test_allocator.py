"""The allocator setting made when the package is imported: freed large
blocks stay in the heap, so a warm forward pass reuses its pages instead of
faulting in fresh zeroed ones."""

import platform
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import synth

import mtlmolnet
from mtlmolnet import data, features, model
from mtlmolnet.config import TrainConfig

GLIBC = platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not GLIBC, reason="the setting is glibc's mallopt")
def test_warm_predict_rows_reuses_its_pages():
    import resource

    rng = np.random.default_rng(0)
    smiles = [synth.random_molecule(rng, 10, 40) for _ in range(50)]
    pack, blocks = data.prepare_molecules(smiles)
    feats = features.feature_matrix(blocks, use_qc=False)
    cfg = TrainConfig(variant="multi-rdkit", hidden=300, depth=3, ffn_hidden=300)
    params = model.init_model(cfg, n_tasks=13)
    rows = np.arange(len(smiles))
    for _ in range(2):
        model.predict_rows(pack, rows, feats, params)
    calls = 5
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        model.predict_rows(pack, rows, feats, params)
    per_call = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / calls
    # with glibc's default thresholds this made 12,000-19,000 per call
    assert per_call < 1000, f"{per_call:.0f} minor page faults per warm call"


@pytest.mark.skipif(not GLIBC, reason="the setting is glibc's mallopt")
def test_glibc_takes_the_setting():
    assert mtlmolnet._retain_freed_memory() is True


def test_setting_is_mmap_limit_and_trim_threshold():
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    assert mtlmolnet._retain_freed_memory(libc) is True
    assert calls == [(mtlmolnet.M_MMAP_MAX, 0), (mtlmolnet.M_TRIM_THRESHOLD, 1 << 30)]


def test_libc_without_mallopt_is_left_alone():
    libc = types.SimpleNamespace(malloc=None)
    assert mtlmolnet._retain_freed_memory(libc) is False
    assert vars(libc) == {"malloc": None}
