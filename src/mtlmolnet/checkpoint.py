"""Flat binary checkpoint format.

Layout: an ASCII header line ``MTLMOLNET-CKPT-1``, one JSON manifest line
(metadata plus a tensor directory of name/shape/byte-offset entries), then
a single blob of little-endian float64 data: the model's flat parameter
store, then the feature-standardization statistics under reserved
``stats.*`` names, so prediction can reproduce training-time preprocessing.
The manifest also records the built-in descriptor names and the phys source
(built-in or an external ``--phys`` file) those statistics were fitted on;
a checkpoint whose names differ from this build's, or that records either
one not at all, is refused, since its statistics would standardize the
wrong columns without any error.

Loading is the one place a model's shapes are checked. A file whose tensor
directory differs from the recorded config's layout (``TrainConfig.param_shapes``,
then the statistics), or whose blob is shorter or longer than that layout, is
refused before anything is allocated; otherwise the parameters are read with
one ``readinto`` into an unfilled vector that becomes the model's flat store,
and the statistics with one more.
"""

import dataclasses
import io
import itertools
import json
import math
import sys

import numpy as np

from . import features as feat
from .config import TrainConfig
from .data import parse_task_specs
from .model import CheckpointMismatch, zero_model

MAGIC = "MTLMOLNET-CKPT-1"
_STATS_DIMS = {"phys_mean": feat.PHYS_DIM, "phys_std": feat.PHYS_DIM,
               "qc_mean": feat.QC_DIM, "qc_std": feat.QC_DIM}


def save_checkpoint(path, params, cfg, stats, task_specs):
    stats_arrays = [(f"stats.{key}", getattr(stats, key)) for key in _STATS_DIMS]
    directory = _directory([(name, t.data.shape) for name, t in params.named_tensors()]
                           + [(name, arr.shape) for name, arr in stats_arrays])
    manifest = {
        "config": cfg.to_dict(),
        "tasks": [dataclasses.asdict(s) for s in task_specs],
        "descriptors": list(feat.BUILTIN_DESCRIPTOR_NAMES),
        "phys_source": stats.phys_source,
        "tensors": directory,
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC.encode() + b"\n")
        fh.write(json.dumps(manifest).encode() + b"\n")
        fh.write(np.ascontiguousarray(params.store.flat, dtype="<f8"))
        for _, arr in stats_arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def _directory(shapes):
    """The tensor directory of a blob that holds float64 tensors of these
    ``(name, shape)`` pairs back to back."""
    directory, offset = [], 0
    for name, shape in shapes:
        directory.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return directory


def _difference(entry, want):
    """Why a manifest's tensor entry is not the layout's entry ``want``;
    either is None past the end of its directory."""
    if want is None:
        return f"unexpected tensor entry {entry!r}"
    name = want["name"]
    if entry is None:
        return f"missing tensor {name}"
    if not isinstance(entry, dict) or entry.get("name") != name:
        return f"expected tensor {name}, found entry {entry!r}"
    shape = entry.get("shape")
    if shape != want["shape"]:
        shown = tuple(shape) if isinstance(shape, list) else repr(shape)
        return f"tensor {name} has shape {shown}, expected {tuple(want['shape'])}"
    return f"tensor {name} has entry {entry!r}, expected {want!r}"


def _read_manifest(path, line):
    """The manifest line as a dict with a config dict and task and tensor
    lists; anything else is a CheckpointMismatch."""
    try:
        manifest = json.loads(line)
    except ValueError as err:
        raise CheckpointMismatch(f"{path}: manifest is not valid JSON ({err})") from None
    if not isinstance(manifest, dict):
        raise CheckpointMismatch(f"{path}: manifest is not a JSON object")
    for key, kind in (("config", dict), ("tasks", list), ("tensors", list)):
        if not isinstance(manifest.get(key), kind):
            raise CheckpointMismatch(f"{path}: manifest lacks a {kind.__name__} {key!r}")
    return manifest


def load_checkpoint(path):
    """Returns (params, cfg, stats, task_specs)."""
    with open(path, "rb") as fh:
        # the layout is checked against the file's size, which a pipe cannot
        # tell before it is read
        return _load(path, fh if fh.seekable() else io.BytesIO(fh.read()))


def _load(path, fh):
    header = fh.readline().rstrip(b"\n")
    if header.decode(errors="replace") != MAGIC:
        raise CheckpointMismatch(f"{path}: bad header {header!r}, expected {MAGIC}")
    manifest = _read_manifest(path, fh.readline())
    start = fh.tell()
    size = fh.seek(0, io.SEEK_END) - start  # bytes of the blob
    fh.seek(start)

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

    try:
        cfg = TrainConfig.from_dict(manifest["config"])
        task_specs = parse_task_specs(manifest["tasks"])
    except (TypeError, ValueError) as err:
        raise CheckpointMismatch(f"{path}: malformed config or tasks ({err})") from None
    if not task_specs:
        raise CheckpointMismatch(f"{path}: manifest records no tasks")

    shapes = cfg.param_shapes(len(task_specs))
    shapes += [(f"stats.{key}", (dim,)) for key, dim in _STATS_DIMS.items()]
    for entry, want in itertools.zip_longest(manifest["tensors"], _directory(shapes)):
        if entry != want:
            raise CheckpointMismatch(f"{path}: {_difference(entry, want)}")
    need = 8 * sum(math.prod(shape) for _, shape in shapes)
    if size != need:
        raise CheckpointMismatch(f"{path}: blob has {size} bytes, its layout needs {need}")

    n_stats = sum(_STATS_DIMS.values())
    flat, stats_flat = np.empty(need // 8 - n_stats), np.empty(n_stats)
    fh.readinto(flat)
    fh.readinto(stats_flat)
    if sys.byteorder == "big":  # the blob is little-endian
        for arr in (flat, stats_flat):
            arr.byteswap(inplace=True)
    params = zero_model(cfg, len(task_specs), flat)
    parts = np.split(stats_flat, list(itertools.accumulate(_STATS_DIMS.values()))[:-1])
    stats = feat.FeatureStats(**dict(zip(_STATS_DIMS, parts)), phys_source=phys_source)
    return params, cfg, stats, task_specs
