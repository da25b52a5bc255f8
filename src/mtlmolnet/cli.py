"""Command-line front door: train | predict | eval | ablate | bench | analyze.

Configuration comes from flags, optionally seeded by a ``key = value`` text
file (--config); flags override the file. MTLMOLNET_SEED supplies the
default seed when --seeds is absent. Data goes to stdout / --out files,
diagnostics go to stderr. Exit codes: 2 config error, 3 data error,
4 numeric failure.
"""

import argparse
import csv
import dataclasses
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
from . import smiles
from .checkpoint import load_checkpoint, save_checkpoint
from .config import VARIANTS, TrainConfig
from .model import CheckpointMismatch, NonFiniteLoss

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


class HistoryMissing(FileNotFoundError):
    pass


class NoTestData(ValueError):
    pass


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _csv_writer(fh):
    return csv.writer(fh, lineterminator="\n")


def read_config_file(path):
    """Parse a ``key = value`` file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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
               "beta_min", "beta_max", "dropout")
_CONFIG_KEYS = {**{key: TrainConfig.__dataclass_fields__[key].type for key in _TRAIN_KEYS},
                **dict.fromkeys(("seeds", "data", "tasks", "phys", "qc", "out"), str)}


def build_parser():
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
        p.add_argument("--out", default="runs", help="output directory")
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
    p_predict.add_argument("--data", required=True,
                           help="SMILES file (one per line) or dataset CSV")
    p_predict.add_argument("--phys", help="external 200-dim descriptor CSV")
    p_predict.add_argument("--qc", help="quantum descriptor CSV")
    p_predict.add_argument("--out", default=None, help="output CSV (default stdout)")

    p_eval = sub.add_parser("eval", help="score a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--tasks", help="task spec JSON (default: from checkpoint)")
    p_eval.add_argument("--phys", help="external 200-dim descriptor CSV")
    p_eval.add_argument("--qc", help="quantum descriptor CSV")
    p_eval.add_argument("--out", default=None, help="output CSV (default stdout)")

    p_ablate = sub.add_parser("ablate", help="train all four variants, shared seeds")
    add_common(p_ablate)

    p_bench = sub.add_parser("bench", help="shared-encoder vs per-task timing")
    p_bench.add_argument("--checkpoint", required=True)
    p_bench.add_argument("--data", required=True, help="SMILES file, one per line")
    p_bench.add_argument("--t-single", type=int, default=13,
                         help="simulated single-task model count")
    p_bench.add_argument("--reps", type=int, default=3)
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
    p_analyze.add_argument("--out", default="runs", help="output directory")

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
    else:
        seeds = [_default_seed()]

    paths = {k: values.pop(k, None) for k in ("data", "tasks", "phys", "qc", "out")}
    try:
        cfg = TrainConfig(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from None
    return cfg, seeds, paths


def _require(paths, key, flag):
    if not paths.get(key):
        raise ConfigError(f"missing required {flag}")
    if not Path(paths[key]).exists():
        raise ConfigError(f"{flag} file {paths[key]!r} does not exist")
    return paths[key]


def _config_hash(cfg, seeds):
    canon = json.dumps({"config": cfg.to_dict(), "seeds": seeds}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_history(path, rows):
    with open(path, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["epoch", "task", "loss", "r", "beta_eff", "w", "val_metric"])
        for row in rows:
            val = row["val_metric"]
            writer.writerow([
                row["epoch"], row["task"], repr(float(row["loss"])),
                repr(float(row["r"])), repr(float(row["beta_eff"])),
                repr(float(row["w"])), "" if val is None else repr(float(val)),
            ])


def read_history(path):
    if not Path(path).exists():
        raise HistoryMissing(f"history file {path!r} not found")
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({
                "epoch": int(row["epoch"]),
                "task": row["task"],
                "loss": float(row["loss"]),
                "r": float(row["r"]),
                "beta_eff": float(row["beta_eff"]),
                "w": float(row["w"]),
                "val_metric": float(row["val_metric"]) if row["val_metric"] else None,
            })
    if not rows:
        raise HistoryMissing(f"history file {path!r} is empty")
    return rows


def _load_table(cfg, paths):
    data_path = _require(paths, "data", "--data")
    tasks_path = _require(paths, "tasks", "--tasks")
    if cfg.use_qc and not paths.get("qc"):
        raise ConfigError(f"variant {cfg.variant} needs quantum descriptors: pass --qc")
    specs = dat.load_task_specs(tasks_path)
    table = dat.load_dataset(data_path, specs)
    dat.prepare_table(table, phys_path=paths.get("phys"), qc_path=paths.get("qc"))
    return table, specs


def _train_one(table, specs, cfg, seed, out_dir):
    run_cfg = TrainConfig(**{**cfg.to_dict(), "seed": seed})
    result = mdl.train(table, run_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / f"model_seed{seed}.ckpt"
    save_checkpoint(ckpt, result.params, run_cfg, result.stats, specs)
    write_history(out_dir / f"history_seed{seed}.csv", result.history)
    val_scores = mdl.evaluate_split(table, result.params, run_cfg, "val", result.stats)
    return result, val_scores


def cmd_train(args):
    cfg, seeds, paths = merge_config(args)
    table, specs = _load_table(cfg, paths)
    out_dir = Path(paths.get("out") or "runs")
    out_dir.mkdir(parents=True, exist_ok=True)

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
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    report = met.aggregate(runs, metrics={s.name: s.metric for s in specs})
    report.to_csv(out_dir / "val_report.csv")
    print(f"parameter_count,{n_params}")
    print(report.to_text())
    return 0


def cmd_ablate(args):
    cfg, seeds, paths = merge_config(args)
    if not paths.get("qc"):
        raise ConfigError("ablate trains qc variants: pass --qc")
    out_dir = Path(paths.get("out") or "runs")
    out_dir.mkdir(parents=True, exist_ok=True)

    table, specs = _load_table(TrainConfig(**{**cfg.to_dict(), "variant": "qw-mtl"}),
                               paths)
    per_variant = {}
    for variant in VARIANTS:
        vcfg = TrainConfig(**{**cfg.to_dict(), "variant": variant})
        runs = []
        for seed in seeds:
            _, val_scores = _train_one(table, specs, vcfg, seed, out_dir / variant)
            runs.append(val_scores)
        per_variant[variant] = met.aggregate(
            runs, metrics={s.name: s.metric for s in specs})
        print(f"variant {variant}: done ({len(seeds)} seed(s))", file=sys.stderr)

    out_path = out_dir / "ablation.csv"
    task_names = [s.name for s in specs]
    with open(out_path, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["task", *VARIANTS])
        for name in task_names:
            row = [name]
            for variant in VARIANTS:
                stats = {t: (m, s) for t, _, m, s in per_variant[variant].rows}
                mean, std = stats[name]
                row.append(f"{mean:.3f}±{std:.3f}")
            writer.writerow(row)
    print(out_path.read_text().strip())
    return 0


def _read_molecule_file(path):
    """One SMILES per line, or a CSV whose first column/header is smiles."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise dat.EmptyDataset(f"{path}: no molecules")
    if "," in lines[0]:
        header = lines[0].split(",")
        if header[0] != "smiles":
            raise dat.DatasetError(f"{path}: first CSV column must be smiles")
        return [line.split(",", 1)[0] for line in lines[1:] if line]
    start = 1 if lines[0].strip() == "smiles" else 0
    return [line.strip() for line in lines[start:] if line.strip()]


def _check_phys_source(stats, phys_path):
    """Refuse to standardize phys blocks with statistics of the other source."""
    source = feat.phys_source(phys_path)
    if stats.phys_source != source:
        raise CheckpointMismatch(
            f"checkpoint statistics were fitted on {stats.phys_source} phys descriptors "
            f"but this run uses {source} ones; pass --phys exactly when training did"
        )


def cmd_predict(args):
    params, cfg, stats, specs = load_checkpoint(args.checkpoint)
    mols = _read_molecule_file(args.data)
    _check_phys_source(stats, args.phys)
    pack, blocks = dat.prepare_molecules(mols, args.phys, args.qc)
    features = feat.feature_matrix(blocks, use_qc=cfg.use_qc, stats=stats)
    probs = mdl.predict_rows(pack, np.arange(len(mols)), features, params)
    dest = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = _csv_writer(dest)
        writer.writerow(["smiles"] + [s.name for s in specs])
        for smi, row in zip(mols, probs):
            writer.writerow([smi] + [repr(float(v)) for v in row])
    finally:
        if args.out:
            dest.close()
    return 0


def cmd_eval(args):
    params, cfg, stats, specs = load_checkpoint(args.checkpoint)
    if args.tasks:
        specs = dat.load_task_specs(args.tasks)
    if cfg.use_qc and not args.qc:
        raise ConfigError(f"variant {cfg.variant} needs quantum descriptors: pass --qc")
    _check_phys_source(stats, args.phys)
    table = dat.load_dataset(args.data, specs)
    dat.prepare_table(table, phys_path=args.phys, qc_path=args.qc)

    view = dat.select_split(table, "test")
    if len(view) == 0 or not view.valid.any():
        raise NoTestData("dataset has no test-tagged labels")
    scores = mdl.evaluate_split(table, params, cfg, "test", stats)

    dest = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = _csv_writer(dest)
        writer.writerow(["task", "metric", "value"])
        for spec in specs:
            value = scores.get(spec.name)
            if value is None:
                print(f"warning: task {spec.name}: metric undefined on test split "
                      "(missing or single-class labels)", file=sys.stderr)
                writer.writerow([spec.name, spec.metric, "N/A"])
            else:
                writer.writerow([spec.name, spec.metric, repr(float(value))])
    finally:
        if args.out:
            dest.close()
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
    params, cfg, stats, specs = load_checkpoint(args.checkpoint)
    mols = _read_molecule_file(args.data)
    _check_phys_source(stats, args.phys)
    pack, blocks = dat.prepare_molecules(mols, args.phys, args.qc)
    features = feat.feature_matrix(blocks, use_qc=cfg.use_qc, stats=stats)
    rows = np.arange(len(mols))
    t_single = args.t_single
    reps = max(args.reps, 3)
    # simulate t_single independent models: one encoder pass per head
    single_models = [dataclasses.replace(params, heads=[params.heads[t % len(params.heads)]])
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
    reps *= max(1, math.ceil(0.05 / max(warm, 1e-9)))
    times = _timed([multi_task_pass, single_task_passes], reps)
    multi, single = times[:, 0], times[:, 1]
    speedup = float(np.median(single / multi))

    avg_atoms = float(np.mean([g.n_atoms for g in pack.graphs]))
    avg_edges = float(np.mean([2 * g.n_bonds for g in pack.graphs]))
    flop_ratio = bench_flop_ratio(cfg, len(specs), t_single, avg_atoms, avg_edges)

    print(f"n_molecules,{len(mols)}")
    print(f"t_single,{t_single}")
    print(f"reps,{reps}")
    print(f"multi_min_s,{multi.min():.4f}")
    print(f"multi_median_s,{np.median(multi):.4f}")
    print(f"single_min_s,{single.min():.4f}")
    print(f"single_median_s,{np.median(single):.4f}")
    print(f"speedup,{speedup:.3f}")
    print(f"speedup_min,{single.min() / multi.min():.3f}")
    print(f"flop_ratio,{flop_ratio:.3f}")
    print(f"parameter_count,{enc.count_parameters(cfg, len(specs))}")
    return 0


def write_beta_table(path, rows):
    """Rows of (task, data_scale, beta_eff) -> CSV."""
    with open(path, "w", newline="") as fh:
        writer = _csv_writer(fh)
        writer.writerow(["task", "data_scale", "beta_eff"])
        for task, scale, beta in rows:
            writer.writerow([task, int(scale), repr(float(beta))])


def read_beta_table(path):
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append((row["task"], int(row["data_scale"]), float(row["beta_eff"])))
    return rows


def cmd_analyze(args):
    history = read_history(args.history)
    specs = dat.load_task_specs(args.tasks)
    table = dat.load_dataset(args.data, specs)
    if args.checkpoint:
        # refuse a checkpoint, a split too small for the PCA or a bad
        # molecule before any output is written
        params, cfg, stats, _ = load_checkpoint(args.checkpoint)
        _check_phys_source(stats, args.phys)
        view = dat.select_split(table, args.split)
        if len(view) < 2:
            raise dat.EmptyDataset(f"split {args.split!r} selects {len(view)} row(s); "
                                   "the PCA needs at least two")
        mols = [table.smiles[r] for r in view.rows]
        pack = enc.pack_graphs(dat.parse_molecules(mols), featurize=True)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

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
    try:
        r_log = met.pearson(np.log(scales), betas)
        r_raw = met.pearson(scales, betas)
        print(f"pearson_log_scale_beta,{r_log:.6f}")
        print(f"pearson_scale_beta,{r_raw:.6f}")
    except met.ConstantInput as err:
        print(f"warning: correlation omitted: {err}", file=sys.stderr)

    if args.checkpoint:
        fps = np.concatenate([
            enc.encode_batch([pack.graphs[r] for r in chunk], params.encoder,
                             union=pack.gather(chunk)).data
            for chunk in np.split(np.arange(len(mols)), range(200, len(mols), 200))])
        with open(out_dir / "embeddings.csv", "w", newline="") as fh:
            writer = _csv_writer(fh)
            writer.writerow(["smiles"] + [f"e{i}" for i in range(fps.shape[1])])
            for smi, row in zip(mols, fps):
                writer.writerow([smi] + [repr(float(v)) for v in row])
        res = met.pca(fps, k=2)
        with open(out_dir / "pca.csv", "w", newline="") as fh:
            writer = _csv_writer(fh)
            writer.writerow(["row_id", "pc1", "pc2"])
            for i, row in enumerate(res.projected):
                writer.writerow([i, repr(float(row[0])), repr(float(row[1]))])
        print(f"explained_variance,{res.explained_variance[0]:.6g},"
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

_DATA_ERRORS = (
    dat.DatasetError,
    feat.FeatureFileError,
    smiles.SmilesError,
    HistoryMissing,
    NoTestData,
    CheckpointMismatch,
    FileNotFoundError,
)

_NUMERIC_ERRORS = (NonFiniteLoss, ad.NonFiniteValue)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        _err(str(err))
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as err:
        _err(str(err))
        return EXIT_NUMERIC
    except _DATA_ERRORS as err:
        _err(str(err))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
