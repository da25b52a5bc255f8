"""Train the 13-task paper-configuration checkpoint that predict-screen
serves, and print its validation AUROC as one JSON line.

The model is one train-paper unit: the train-paper dataset for the seed,
trained for its 3 epochs. It runs in its own process so that training
memory and time do not count towards the screen's peak RSS. The
predict-screen workload starts it; by hand:

    mkdir work && PYTHONPATH=src python3 perfbench/checkpoint_job.py \\
        --seed 0 --workdir work --out work/screen.ckpt
"""

import argparse
import json
from pathlib import Path

import numpy as np

import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    from mtlmolnet import model
    from mtlmolnet.checkpoint import save_checkpoint

    workload = workloads.train_paper(args.seed, args.workdir, None)
    try:
        workload.setup()
        result = model.train(workload.table, workload.cfg)
    finally:
        workload.close()
    save_checkpoint(args.out, result.params, workload.cfg, result.stats, workload.specs)
    scores = [row["val_metric"] for row in result.history
              if row["epoch"] == result.best_epoch and row["val_metric"] is not None]
    print(json.dumps({"val_auroc_mean": float(np.mean(scores))}))


if __name__ == "__main__":
    main()
