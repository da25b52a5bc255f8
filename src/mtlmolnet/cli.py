"""Command-line front door: train | predict | eval | ablate | bench | analyze.

Configuration comes from flags, optionally seeded by a ``key = value`` text
file (--config); flags override the file. MTLMOLNET_SEED supplies the
default seed when --seeds is absent. Data goes to stdout / --out files,
diagnostics go to stderr. One exception base decides each exit code: 2 a
``ConfigError``, 3 a ``tables.DatasetError`` (or an ``OSError``: a file that
cannot be read), 4 an ``autodiff.NonFiniteValue``.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import encoder as enc
from . import features as feat
from . import metrics as met
from . import model as mdl
from . import smiles, tables
from .checkpoint import load_checkpoint, save_checkpoint
from .config import VARIANTS, TrainConfig
from .model import CheckpointMismatch

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


class HistoryMissing(tables.DatasetError):
    pass


class NoTestData(tables.DatasetError):
    pass


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _out_dir(path):
    """The output directory ``path``, ``runs`` when none is given; created."""
    out_dir = Path(path or "runs")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def read_config_file(path):
    """Parse a ``key = value`` file, read by ``tables.read_text``; '#' starts
    a comment. A file that cannot be read or decoded is a ConfigError naming it."""
    try:
        text = tables.read_text(path)
    except OSError as err:
        raise ConfigError(f"config file {path}: {err.strerror}") from None
    except tables.DatasetError as err:
        raise ConfigError(f"config file {err}") from None
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _default_seed():
    env = os.environ.get("MTLMOLNET_SEED", "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"MTLMOLNET_SEED must be an integer, got {env!r}") from None
    return 0


# the TrainConfig fields that flags and config files set; seeds set the seed
_TRAIN_KEYS = ("variant", "epochs", "batch_size", "lr", "hidden", "depth", "ffn_hidden",
               "beta_min", "beta_max")
_CONFIG_KEYS = {**{key: TrainConfig.__dataclass_fields__[key].type for key in _TRAIN_KEYS},
                **dict.fromkeys(("seeds", "data", "tasks", "phys", "qc", "out"), str)}


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``parse_args`` leaves
    it unchanged and returns a new namespace each call."""
    molecules = ("UTF-8 file of SMILES, one per line under an optional 'smiles' header, "
                 "or a CSV (a dataset too) whose first column is smiles")
    parser = argparse.ArgumentParser(
        prog="mtlmolnet",
        description="multi-task molecular property prediction engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_training=True):
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--data", help="multi-task dataset CSV")
        p.add_argument("--tasks", help="task spec JSON file")
        p.add_argument("--phys", help="external 200-dim descriptor CSV")
        p.add_argument("--qc", help="quantum descriptor CSV")
        p.add_argument("--out", help="output directory (default runs)")
        if with_training:
            p.add_argument("--variant", choices=VARIANTS, default=None)
            p.add_argument("--seeds", default=None,
                           help="comma-separated seeds (default: MTLMOLNET_SEED or 0)")
            for key in _TRAIN_KEYS[1:]:  # all but --variant, which has choices
                p.add_argument("--" + key.replace("_", "-"), type=_CONFIG_KEYS[key])

    p_train = sub.add_parser("train", help="train one model per seed")
    add_common(p_train)

    p_predict = sub.add_parser("predict", help="predict probabilities for SMILES")
    p_predict.add_argument("--checkpoint", required=True)
    p_predict.add_argument("--data", required=True, help=molecules)
    p_predict.add_argument("--phys", help="external 200-dim descriptor CSV")
    p_predict.add_argument("--qc", help="quantum descriptor CSV")
    p_predict.add_argument("--out", default=None, help="output CSV (default stdout)")

    p_eval = sub.add_parser("eval", help="score a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--tasks", help="task spec JSON naming the checkpoint's tasks in "
                        "order, for other label/split columns (default: from checkpoint)")
    p_eval.add_argument("--phys", help="external 200-dim descriptor CSV")
    p_eval.add_argument("--qc", help="quantum descriptor CSV")
    p_eval.add_argument("--out", default=None, help="output CSV (default stdout)")

    p_ablate = sub.add_parser("ablate", help="train all four variants, shared seeds")
    add_common(p_ablate)

    p_bench = sub.add_parser("bench", help="shared-encoder vs per-task timing")
    p_bench.add_argument("--checkpoint", required=True)
    p_bench.add_argument("--data", required=True, help=molecules)
    p_bench.add_argument("--t-single", type=int, default=13,
                         help="simulated single-task model count")
    p_bench.add_argument("--reps", type=int, default=3,
                         help="timed reps; each is scaled to about 50 ms of multi-task passes")
    p_bench.add_argument("--qc", help="quantum descriptor CSV")
    p_bench.add_argument("--phys", help="external 200-dim descriptor CSV")

    p_analyze = sub.add_parser("analyze", help="exponent/scale analysis + embeddings")
    p_analyze.add_argument("--history", required=True, help="training history CSV")
    p_analyze.add_argument("--data", required=True)
    p_analyze.add_argument("--tasks", required=True)
    p_analyze.add_argument("--checkpoint", help="export fingerprints + PCA if given")
    p_analyze.add_argument("--split", default="val", choices=["train", "val", "test"],
                           help="rows to embed (default val)")
    p_analyze.add_argument("--phys", help="external 200-dim descriptor CSV (checked, not read)")
    p_analyze.add_argument("--qc", help="quantum descriptor CSV (not read)")
    p_analyze.add_argument("--out", help="output directory (default runs)")

    return parser


def merge_config(args):
    """File values first, then flag overrides; returns (cfg, seeds, paths)."""
    values = {}
    if getattr(args, "config", None):
        raw = read_config_file(args.config)
        for key, text in raw.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](text)
            except ValueError:
                raise ConfigError(f"config key {key}: bad value {text!r}") from None
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    seeds_text = str(values.pop("seeds", "")).strip()
    if seeds_text:
        try:
            seeds = [int(s) for s in seeds_text.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"bad --seeds value {seeds_text!r}") from None
        if not seeds:
            raise ConfigError("--seeds must list at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"--seeds lists a seed more than once: {seeds_text!r}")
    else:
        seeds = [_default_seed()]
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {min(seeds)}")

    paths = {k: values.pop(k, None) for k in ("data", "tasks", "phys", "qc", "out")}
    try:
        cfg = TrainConfig(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from None
    return cfg, seeds, paths


def _config_hash(cfg, seeds):
    canon = json.dumps({"config": cfg.to_dict(), "seeds": seeds}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


_HISTORY_COLUMNS = ("epoch", "task", "loss", "r", "beta_eff", "w", "val_metric")


def write_history(path, rows):
    tables.write_csv(path, _HISTORY_COLUMNS, ([row[c] for c in _HISTORY_COLUMNS] for row in rows))


def _require_columns(path, header, columns, kind):
    missing = [c for c in columns if c not in header]
    if missing:
        raise dat.DatasetError(f"{path}: {kind} lacks column(s) {', '.join(missing)}")


def read_history(path):
    """The rows of a history CSV. A row of another width than the header,
    or a cell that is not a finite number, is refused by file, line and
    column."""
    header, lines = tables.read_csv(path)
    _require_columns(path, header, _HISTORY_COLUMNS, "history")
    rows = []
    for lineno, fields in lines:
        cells = dict(zip(header, fields))
        val = cells["val_metric"]
        rows.append({
            "epoch": tables.number(cells["epoch"], path, lineno, "epoch", int),
            "task": cells["task"],
            **{c: tables.number(cells[c], path, lineno, c) for c in _HISTORY_COLUMNS[2:6]},
            "val_metric": tables.number(val, path, lineno, "val_metric") if val else None})
    if not rows:
        raise HistoryMissing(f"history file {path!r} is empty")
    return rows


def _load_table(cfg, paths, specs=None):
    """The prepared dataset of ``paths`` and its task specs (``specs``, else
    the --tasks file's). A variant that fuses quantum descriptors needs --qc."""
    if specs is None:  # training names both files
        for key in ("data", "tasks"):
            if not paths.get(key):
                raise ConfigError(f"missing required --{key}")
            if not Path(paths[key]).exists():
                raise ConfigError(f"--{key} file {paths[key]!r} does not exist")
    if cfg.use_qc and not paths.get("qc"):
        raise ConfigError(f"variant {cfg.variant} needs quantum descriptors: pass --qc")
    specs = specs or dat.load_task_specs(paths["tasks"])
    table = dat.load_dataset(paths["data"], specs)
    dat.prepare_table(table, phys_path=paths.get("phys"), qc_path=paths.get("qc"))
    return table, specs


def _train_one(table, specs, cfg, seed, out_dir):
    run_cfg = TrainConfig(**{**cfg.to_dict(), "seed": seed})
    result = mdl.train(table, run_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / f"model_seed{seed}.ckpt"
    save_checkpoint(ckpt, result.params, run_cfg, result.stats, specs)
    write_history(out_dir / f"history_seed{seed}.csv", result.history)
    if result.history:  # the best epoch's scores are those of the restored parameters
        val_scores = {row["task"]: row["val_metric"] for row in result.history
                      if row["epoch"] == result.best_epoch}
    else:  # no epoch ran, so the untrained model was never scored
        features = feat.feature_matrix(table.blocks, use_qc=run_cfg.use_qc, stats=result.stats)
        val_scores = mdl.evaluate_split(table, result.params, "val", features)
    return result, val_scores


def cmd_train(args):
    cfg, seeds, paths = merge_config(args)
    table, specs = _load_table(cfg, paths)
    out_dir = _out_dir(paths["out"])

    runs = []
    for seed in seeds:
        result, val_scores = _train_one(table, specs, cfg, seed, out_dir)
        runs.append(val_scores)
        print(f"seed {seed}: best epoch {result.best_epoch}", file=sys.stderr)

    n_params = enc.count_parameters(cfg, len(specs))
    manifest = {
        "config": cfg.to_dict(),
        "seeds": seeds,
        "config_hash": _config_hash(cfg, seeds),
        "parameter_count": n_params,
        "tasks": [s.name for s in specs],
    }
    text = json.dumps(manifest, indent=2, sort_keys=True)  # ASCII: json escapes the rest
    (out_dir / "manifest.json").write_bytes(text.encode())

    report = met.aggregate(runs, metrics={s.name: s.metric for s in specs})
    report.to_csv(out_dir / "val_report.csv")
    tables.echo(f"parameter_count,{n_params}\n{report.to_text()}")
    return 0


def cmd_ablate(args):
    cfg, seeds, paths = merge_config(args)
    # one table for all four variants, loaded as qw-mtl reads it: with --qc
    table, specs = _load_table(TrainConfig(**{**cfg.to_dict(), "variant": "qw-mtl"}),
                               paths)
    out_dir = _out_dir(paths["out"])
    per_variant = {}
    for variant in VARIANTS:
        vcfg = TrainConfig(**{**cfg.to_dict(), "variant": variant})
        runs = []
        for seed in seeds:
            _, val_scores = _train_one(table, specs, vcfg, seed, out_dir / variant)
            runs.append(val_scores)
        report = met.aggregate(runs, metrics={s.name: s.metric for s in specs})
        per_variant[variant] = {t: f"{m:.3f}±{sd:.3f}" for t, _, m, sd in report.rows}
        print(f"variant {variant}: done ({len(seeds)} seed(s))", file=sys.stderr)

    out_path = out_dir / "ablation.csv"
    tables.write_csv(out_path, ["task", *VARIANTS],
                     ([s.name, *(per_variant[v][s.name] for v in VARIANTS)] for s in specs))
    tables.echo(tables.read_text(out_path).strip())
    return 0


def _read_molecule_file(path):
    """The SMILES of a request file and each one's ``path:line``: one per
    line, optionally under a ``smiles`` header, or the first field of a CSV
    whose header names ``smiles`` first and whose rows all have its width."""
    header, rows = tables.read_csv(path)
    if len(header) > 1 and header[0] != "smiles":
        raise dat.DatasetError(f"{path}:1: first CSV column must be smiles")
    found = [(lineno, fields[0]) for lineno, fields in rows]
    if len(header) == 1:
        first = [] if header[0].strip() == "smiles" else [(1, header[0])]
        found = [(lineno, smi.strip()) for lineno, smi in first + found if smi.strip()]
    return [smi for _, smi in found], [f"{path}:{lineno}" for lineno, _ in found]


def _load_serving(args):
    """The checkpoint ``args.checkpoint`` as (params, cfg, stats, specs),
    refused when its descriptor statistics were fitted on the other phys
    source than ``args.phys``."""
    params, cfg, stats, specs = load_checkpoint(args.checkpoint)
    source = feat.phys_source(args.phys)
    if stats.phys_source != source:
        raise CheckpointMismatch(
            f"checkpoint statistics were fitted on {stats.phys_source} phys descriptors "
            f"but this run uses {source} ones; pass --phys exactly when training did"
        )
    return params, cfg, stats, specs


def _prepare_request(args, cfg, stats):
    """The molecules of ``args.data`` as (smiles, pack, standardized
    descriptor matrix)."""
    mols, where = _read_molecule_file(args.data)
    pack, blocks = dat.prepare_molecules(mols, args.phys, args.qc, where)
    return mols, pack, feat.feature_matrix(blocks, use_qc=cfg.use_qc, stats=stats)


def cmd_predict(args):
    params, cfg, stats, specs = _load_serving(args)
    mols, pack, features = _prepare_request(args, cfg, stats)
    probs = mdl.predict_rows(pack, np.arange(len(mols)), features, params)
    tables.write_csv(args.out, ["smiles", *(s.name for s in specs)],
                     ([smi, *row] for smi, row in zip(mols, probs)))
    return 0


def cmd_eval(args):
    params, cfg, stats, specs = _load_serving(args)
    if args.tasks:
        heads = [s.name for s in specs]
        specs = dat.load_task_specs(args.tasks)
        names = [s.name for s in specs]
        if names != heads:
            raise CheckpointMismatch(
                f"{args.tasks}: tasks ({', '.join(names)}) do not match the checkpoint's "
                f"heads ({', '.join(heads)}), in count, names or order"
            )
    table, _ = _load_table(cfg, vars(args), specs)

    view = dat.select_split(table, "test")
    if len(view) == 0 or not view.valid.any():
        raise NoTestData("dataset has no test-tagged labels")
    features = feat.feature_matrix(table.blocks, use_qc=cfg.use_qc, stats=stats)
    scores = mdl.evaluate_split(table, params, "test", features)

    rows = []
    for spec in specs:
        value = scores.get(spec.name)
        if value is None:
            print(f"warning: task {spec.name}: metric undefined on test split "
                  "(missing or single-class labels)", file=sys.stderr)
        rows.append([spec.name, spec.metric, "N/A" if value is None else value])
    tables.write_csv(args.out, ["task", "metric", "value"], rows)
    return 0


def _timed(fns, reps):
    """Seconds of each function in each rep, [reps x len(fns)]. The
    functions take turns within each rep, so a slow spell of the machine
    hits all of them."""
    times = np.zeros((reps, len(fns)))
    for rep in range(reps):
        for j, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            times[rep, j] = time.perf_counter() - t0
    return times


def bench_flop_ratio(cfg, n_tasks, t_single, avg_atoms, avg_edges):
    """Dominance check: multiply-add counts for both inference strategies."""
    enc_flops = (avg_edges * (cfg.atom_dim + cfg.bond_dim) * cfg.hidden
                 + (cfg.depth - 1) * avg_edges * cfg.hidden * cfg.hidden
                 + avg_atoms * (cfg.atom_dim + cfg.hidden) * cfg.hidden)
    head_flops = cfg.fused_dim * cfg.ffn_hidden + cfg.ffn_hidden
    multi = enc_flops + n_tasks * head_flops
    single = t_single * (enc_flops + head_flops)
    return single / multi


def cmd_bench(args):
    if args.t_single < 1:
        raise ConfigError(f"--t-single must be >= 1, got {args.t_single}")
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    params, cfg, stats, specs = _load_serving(args)
    mols, pack, features = _prepare_request(args, cfg, stats)
    rows = np.arange(len(mols))
    t_single = args.t_single
    # simulate t_single independent models: one encoder pass per head
    n_heads = len(params.heads)
    single_models = [dataclasses.replace(params, heads=params.heads[t % n_heads:t % n_heads + 1])
                     for t in range(t_single)]

    def multi_task_pass():
        mdl.predict_rows(pack, rows, features, params)

    def single_task_passes():
        for single in single_models:
            mdl.predict_rows(pack, rows, features, single)

    warm = _timed([multi_task_pass], 1)[0, 0]  # also warms caches
    # each rep's ratio compares passes that ran back to back, on the machine
    # in one speed state; fast passes get more reps (about 50 ms of multi-task
    # passes per requested rep), so a burst of noise spoils a few ratios, not
    # their median
    reps = args.reps * max(1, math.ceil(0.05 / max(warm, 1e-9)))
    times = _timed([multi_task_pass, single_task_passes], reps)
    multi, single = times[:, 0], times[:, 1]
    speedup = float(np.median(single / multi))

    avg_atoms = float(np.mean(np.diff(pack.codes.atom_off)))
    avg_edges = float(np.mean(2 * np.diff(pack.codes.bond_off)))
    flop_ratio = bench_flop_ratio(cfg, len(specs), t_single, avg_atoms, avg_edges)

    tables.echo("\n".join([
        f"n_molecules,{len(mols)}",
        f"t_single,{t_single}",
        f"reps,{reps}",
        f"multi_min_s,{multi.min():.4f}",
        f"multi_median_s,{np.median(multi):.4f}",
        f"single_min_s,{single.min():.4f}",
        f"single_median_s,{np.median(single):.4f}",
        f"speedup,{speedup:.3f}",
        f"speedup_min,{single.min() / multi.min():.3f}",
        f"flop_ratio,{flop_ratio:.3f}",
        f"parameter_count,{enc.count_parameters(cfg, len(specs))}",
    ]))
    return 0


_BETA_COLUMNS = ("task", "data_scale", "beta_eff")


def write_beta_table(path, rows):
    """Rows of (task, data_scale, beta_eff) -> CSV."""
    tables.write_csv(path, _BETA_COLUMNS, rows)


def read_beta_table(path):
    """The (task, data_scale, beta_eff) rows of a ``write_beta_table`` CSV.
    A missing column is refused by file, a scale that is not an integer or
    an exponent that is not a finite number by file, line and column."""
    header, rows = tables.read_csv(path)
    _require_columns(path, header, _BETA_COLUMNS, "beta table")
    task, scale, beta = map(header.index, _BETA_COLUMNS)
    return [(f[task], tables.number(f[scale], path, lineno, "data_scale", int),
             tables.number(f[beta], path, lineno, "beta_eff")) for lineno, f in rows]


def cmd_analyze(args):
    history = read_history(args.history)
    specs = dat.load_task_specs(args.tasks)
    table = dat.load_dataset(args.data, specs)
    if args.checkpoint:
        # refuse a checkpoint, a fingerprint or a split too small for the
        # PCA or a bad molecule before any output is written
        params, cfg = _load_serving(args)[:2]
        if cfg.hidden < 2:
            raise CheckpointMismatch(f"{args.checkpoint}: its fingerprints have hidden width "
                                     f"{cfg.hidden}; the PCA needs at least two")
        view = dat.select_split(table, args.split)
        if len(view) < 2:
            raise dat.EmptyDataset(f"split {args.split!r} selects {len(view)} row(s); "
                                   "the PCA needs at least two")
        mols = [table.smiles[r] for r in view.rows]
        pack = enc.pack_codes(smiles.parse_codes(mols, [table.where[r] for r in view.rows]))
    out_dir = _out_dir(args.out)

    last_epoch = max(row["epoch"] for row in history)
    beta_by_task = {row["task"]: row["beta_eff"] for row in history
                    if row["epoch"] == last_epoch}
    counts = table.labeled_counts()
    rows = []
    for t, spec in enumerate(table.specs):
        if spec.name not in beta_by_task:
            raise HistoryMissing(f"history has no rows for task {spec.name!r}")
        rows.append((spec.name, int(counts[t]), beta_by_task[spec.name]))
    write_beta_table(out_dir / "beta_by_scale.csv", rows)

    scales = np.array([r[1] for r in rows], dtype=float)
    betas = np.array([r[2] for r in rows])
    unlabeled = [name for name, scale, _ in rows if scale == 0]
    try:
        r_raw = met.pearson(scales, betas)
        if unlabeled:  # log(0) has no place on the log scale
            print("warning: correlation omitted: pearson_log_scale_beta: no labeled rows "
                  f"for task(s) {', '.join(unlabeled)}", file=sys.stderr)
        else:
            tables.echo(f"pearson_log_scale_beta,{met.pearson(np.log(scales), betas):.6f}")
        tables.echo(f"pearson_scale_beta,{r_raw:.6f}")
    except met.ConstantInput as err:
        print(f"warning: correlation omitted: {err}", file=sys.stderr)

    if args.checkpoint:
        fps = mdl.embed_rows(pack, np.arange(len(mols)), params.encoder)
        tables.write_csv(out_dir / "embeddings.csv",
                         ["smiles", *(f"e{i}" for i in range(fps.shape[1]))],
                         ([smi, *row] for smi, row in zip(mols, fps)))
        res = met.pca(fps, k=2)
        tables.write_csv(out_dir / "pca.csv", ["row_id", "pc1", "pc2"],
                         ([i, *row] for i, row in enumerate(res.projected)))
        tables.echo(f"explained_variance,{res.explained_variance[0]:.6g},"
                    f"{res.explained_variance[1]:.6g}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "bench": cmd_bench,
    "analyze": cmd_analyze,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite result fails as a typed error at the op that made
        # it, so numpy's own warnings about it would only repeat that error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as err:
        _err(str(err))
        return EXIT_CONFIG
    except ad.NonFiniteValue as err:
        _err(str(err))
        return EXIT_NUMERIC
    except (tables.DatasetError, OSError) as err:  # OSError: a missing or unreadable file
        _err(str(err))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
