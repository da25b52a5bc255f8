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
Loading builds a zero model of the recorded config's parameter layout and
copies each named tensor into its view, refusing a missing or mis-shaped one.
"""

import json
import math

import numpy as np

from . import features as feat
from .config import TrainConfig
from .model import CheckpointMismatch, zero_model

MAGIC = "MTLMOLNET-CKPT-1"
_STATS_DIMS = {"phys_mean": feat.PHYS_DIM, "phys_std": feat.PHYS_DIM,
               "qc_mean": feat.QC_DIM, "qc_std": feat.QC_DIM}


def save_checkpoint(path, params, cfg, stats, task_specs):
    tensors = [(name, t.data) for name, t in params.named_tensors()]
    tensors += [(f"stats.{key}", getattr(stats, key)) for key in _STATS_DIMS]
    directory, blobs, offset = [], [], 0
    for name, arr in tensors:
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
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
        arrays[entry["name"]] = arr.reshape(shape)

    try:
        cfg = TrainConfig.from_dict(manifest["config"])
        task_specs = [TaskSpec(**t) for t in manifest["tasks"]]
    except (TypeError, ValueError) as err:
        raise CheckpointMismatch(f"{path}: malformed config or tasks ({err})") from None

    def take(name, shape):
        if name not in arrays:
            raise CheckpointMismatch(f"{path}: missing tensor {name}")
        arr = arrays[name]
        if arr.shape != shape:
            raise CheckpointMismatch(
                f"{path}: tensor {name} has shape {arr.shape}, expected {shape}"
            )
        return arr

    params = zero_model(cfg, len(task_specs))
    for name, t in params.named_tensors():
        t.data[...] = take(name, t.data.shape)
    stats = feat.FeatureStats(**{key: take(f"stats.{key}", (dim,)).copy()
                                 for key, dim in _STATS_DIMS.items()},
                              phys_source=phys_source)
    return params, cfg, stats, task_specs
