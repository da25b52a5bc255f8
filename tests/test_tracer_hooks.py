"""The benchmark tracer's hooks still find the program's names.

``perfbench/tracer.py`` hooks public functions, methods and autodiff ops by
module attribute, and a hook whose target is gone is only recorded in
``Tracer.absent`` (the benchmark's ``trace.hooks_absent``). Installing the
real ``HOOKS`` here makes a refactor that deletes or renames a hooked name
fail this suite instead. Two hooks are stale today: ``adam_step`` and the
op ``index_select`` were deleted from the program. The benchmark change
that retires them from ``HOOKS`` updates the expected list below.
"""

import sys
from pathlib import Path

import numpy as np

from mtlmolnet import features, model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_only_the_known_stale_hooks_are_absent():
    originals = (model.train, features.feature_matrix)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.absent == ["autodiff.adam_step", "*.index_select"]
        block = features.FeatureBlock(phys=np.zeros(features.PHYS_DIM),
                                      qc=np.zeros(features.QC_DIM),
                                      qc_mask=np.zeros(features.QC_DIM))
        features.feature_matrix([block])
        assert t.calls["features.feature_matrix"] == 1
    finally:
        t.uninstall()
    assert (model.train, features.feature_matrix) == originals
