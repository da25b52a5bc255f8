"""Flat binary checkpoint format.

Layout: an ASCII header line ``MTLMOLNET-CKPT-1``, one JSON manifest line
(metadata plus a tensor directory of name/shape/byte-offset entries), then
a single blob of little-endian float64 data. Feature-standardization
statistics ride along as ordinary tensors under reserved ``stats.*``
names so prediction can reproduce training-time preprocessing. The
manifest also records the built-in descriptor names and the phys source
(built-in or an external ``--phys`` file) those statistics were fitted on;
a checkpoint whose names differ from this build's, or that records either
one not at all, is refused, since its statistics would standardize the
wrong columns without any error. A malformed manifest is refused as well.
"""

import json
import math

import numpy as np

from . import encoder as enc
from . import features as feat
from .autodiff import Tensor
from .config import TrainConfig
from .model import CheckpointMismatch, HeadParams, ModelParams, WeightingState

MAGIC = "MTLMOLNET-CKPT-1"


def save_checkpoint(path, params, cfg, stats, task_specs):
    tensors = [(name, t.data) for name, t in params.named_tensors()]
    tensors += [
        ("stats.phys_mean", stats.phys_mean),
        ("stats.phys_std", stats.phys_std),
        ("stats.qc_mean", stats.qc_mean),
        ("stats.qc_std", stats.qc_std),
    ]
    directory = []
    offset = 0
    blobs = []
    for name, arr in tensors:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += len(blobs[-1])
    manifest = {
        "config": cfg.to_dict(),
        "tasks": [
            {"name": s.name, "metric": s.metric, "label_column": s.label_column,
             "split_column": s.split_column}
            for s in task_specs
        ],
        "descriptors": list(feat.BUILTIN_DESCRIPTOR_NAMES),
        "phys_source": stats.phys_source,
        "tensors": directory,
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC.encode() + b"\n")
        fh.write(json.dumps(manifest).encode() + b"\n")
        for blob in blobs:
            fh.write(blob)


def _read_manifest(path, line):
    """The manifest line as a dict with a config, a task list and a well-formed
    tensor directory; anything else is a CheckpointMismatch."""
    try:
        manifest = json.loads(line)
    except ValueError as err:
        raise CheckpointMismatch(f"{path}: manifest is not valid JSON ({err})") from None
    if not isinstance(manifest, dict):
        raise CheckpointMismatch(f"{path}: manifest is not a JSON object")
    for key, kind in (("config", dict), ("tasks", list), ("tensors", list)):
        if not isinstance(manifest.get(key), kind):
            raise CheckpointMismatch(f"{path}: manifest lacks a {kind.__name__} {key!r}")
    for entry in manifest["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(_is_count(d) for d in entry["shape"])
                and _is_count(entry.get("offset"))):
            raise CheckpointMismatch(f"{path}: malformed tensor entry {entry!r}")
    return manifest


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_checkpoint(path):
    """Returns (params, cfg, stats, task_specs)."""
    from .data import TaskSpec

    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n")
        if header.decode(errors="replace") != MAGIC:
            raise CheckpointMismatch(f"{path}: bad header {header!r}, expected {MAGIC}")
        manifest = _read_manifest(path, fh.readline())
        blob = fh.read()

    descriptors = manifest.get("descriptors")
    if descriptors != list(feat.BUILTIN_DESCRIPTOR_NAMES):
        recorded = (",".join(map(str, descriptors)) if isinstance(descriptors, list)
                    else repr(descriptors))
        raise CheckpointMismatch(
            f"{path}: recorded built-in descriptors ({recorded}) differ from this "
            "build's (slot 13 'bonds' was retired for 'nitrogens'); retrain the checkpoint"
        )
    phys_source = manifest.get("phys_source")
    if phys_source not in feat.PHYS_SOURCES:
        raise CheckpointMismatch(
            f"{path}: recorded phys source {phys_source!r} is not one of "
            f"{', '.join(feat.PHYS_SOURCES)}; retrain the checkpoint"
        )

    arrays = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        try:
            arr = np.frombuffer(blob, dtype="<f8", count=math.prod(shape),
                                offset=entry["offset"])
        except ValueError:
            raise CheckpointMismatch(
                f"{path}: truncated tensor {entry['name']}"
            ) from None
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float64)

    try:
        cfg = TrainConfig.from_dict(manifest["config"])
        task_specs = [TaskSpec(**t) for t in manifest["tasks"]]
    except (TypeError, ValueError) as err:
        raise CheckpointMismatch(f"{path}: malformed config or tasks ({err})") from None
    n_tasks = len(task_specs)

    def take(name, shape):
        if name not in arrays:
            raise CheckpointMismatch(f"{path}: missing tensor {name}")
        arr = arrays[name]
        if arr.shape != shape:
            raise CheckpointMismatch(
                f"{path}: tensor {name} has shape {arr.shape}, expected {shape}"
            )
        return arr

    def param(name, shape):
        return Tensor(take(name, shape), requires_grad=True)

    fa, fb, h = cfg.atom_dim, cfg.bond_dim, cfg.hidden
    encoder = enc.EncoderParams(
        w_in=param("encoder.w_in", (fa + fb, h)),
        w_msg=param("encoder.w_msg", (h, h)),
        w_out=param("encoder.w_out", (fa + h, h)),
        depth=cfg.depth,
        hidden=h,
    )
    heads = []
    for t in range(n_tasks):
        heads.append(HeadParams(
            w1=param(f"head{t}.w1", (cfg.fused_dim, cfg.ffn_hidden)),
            b1=param(f"head{t}.b1", (cfg.ffn_hidden,)),
            w2=param(f"head{t}.w2", (cfg.ffn_hidden, 1)),
            b2=param(f"head{t}.b2", (1,)),
        ))
    weighting = WeightingState(
        n_tasks, beta_min=cfg.beta_min, beta_max=cfg.beta_max,
        uniform=not cfg.learnable_beta, renormalize=cfg.renormalize_weights,
    )
    weighting.log_beta = Tensor(take("log_beta", (n_tasks,)),
                                requires_grad=cfg.learnable_beta)
    stats = feat.FeatureStats(
        phys_mean=take("stats.phys_mean", (feat.PHYS_DIM,)),
        phys_std=take("stats.phys_std", (feat.PHYS_DIM,)),
        qc_mean=take("stats.qc_mean", (feat.QC_DIM,)),
        qc_std=take("stats.qc_std", (feat.QC_DIM,)),
        phys_source=phys_source,
    )

    params = ModelParams(encoder=encoder, heads=heads, weighting=weighting)
    return params, cfg, stats, task_specs
