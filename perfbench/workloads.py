"""The benchmark's workloads: two training configurations and a predict
screen. Each drives mtlmolnet only through its public entry points
(``data.load_dataset``, ``data.prepare_table``, ``model.train`` and
``cli.main``), in a closed loop with a single caller.

A workload has the same shape for both kinds:

* ``setup()`` does the work a user pays once before the loop and returns
  its wall time;
* ``unit()`` does one unit of measured work (one ``model.train`` call, or
  one ``predict`` request) and records its samples;
* ``run()`` repeats ``unit()`` for a time or a number of units;
* ``metrics()`` turns the samples into end-to-end values;
* ``check()`` returns the list of failed correctness checks.
"""

import csv
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import molgen
import reference

_perf = time.perf_counter
HERE = Path(__file__).resolve().parent


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def percentiles(ms):
    """p10, p50 and p90 of per-operation times, for the report.

    Only p90 is a metric. On a shared machine whose speed flips between a
    fast and a slow state for seconds at a time, p10 and p50 of a 30 s run
    land in either state depending on the run's mix of states, while p90
    stays in the slow one.
    """
    return {f"p{q}": percentile(ms, q) for q in (10, 50, 90)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StepClock:
    """Time per optimizer step, from one timestamp per ``Adam.step`` return.

    A step is measured from the previous step's return or from the end of
    the previous epoch (the ``progress`` callback), so validation is left
    out. The first step of each ``model.train`` call has no such reference
    and is counted but not timed.
    """

    def __init__(self, adam_cls):
        self.adam_cls = adam_cls
        self.original = None
        self.durations = []
        self.steps = 0
        self.last = None

    def install(self):
        clock = self
        original = self.original = self.adam_cls.step

        def step(optimizer):
            original(optimizer)
            now = _perf()
            if clock.last is not None:
                clock.durations.append(now - clock.last)
            clock.last = now
            clock.steps += 1

        self.adam_cls.step = step

    def uninstall(self):
        self.adam_cls.step = self.original

    def epoch_end(self, epoch, rows):
        self.last = _perf()


class Workload:
    SETUP_IN_PROCESS = True  # set-up runs in this process and can be traced

    def __init__(self):
        self.stream_wall = 0.0

    def close(self):
        """Undo what the constructor installed."""

    def probe(self):
        """Requests outside the measured loop; none by default."""

    def timed_samples(self):
        raise NotImplementedError

    def run(self, seconds=None, min_samples=0, units=None, setups=0):
        """Closed loop: ``units`` units, or units until ``seconds`` have
        passed and at least ``min_samples`` timed samples exist.

        With ``setups``, set-up is also timed that many times, spread evenly
        over the first ``seconds`` between units, so that its median sees
        the same machine states as the loop. Its time is kept out of the
        loop's wall time. Returns (units done, set-up times).
        """
        t0 = _perf()
        done = 0
        setup_times = []
        setup_wall = 0.0
        while (done < units if units is not None
               else _perf() - t0 < seconds or self.timed_samples() < min_samples):
            self.unit()
            done += 1
            while (len(setup_times) < setups and _perf() - t0 - setup_wall
                   >= seconds * (len(setup_times) + 0.5) / setups):
                s0 = _perf()
                setup_times.append(self.setup())
                setup_wall += _perf() - s0
        self.stream_wall += _perf() - t0 - setup_wall
        setup_times += [self.setup() for _ in range(setups - len(setup_times))]
        return done, setup_times


class TrainWorkload(Workload):
    """Repeated ``model.train`` calls on one generated dataset.

    Every call starts from the raw descriptor blocks, so each call does the
    same work and, for a fixed seed, returns the same history.
    """

    def __init__(self, seed, workdir, *, n_rows, atoms, counts, rules, noise,
                 use_qc, config, auroc_floor):
        from mtlmolnet import autodiff, data
        from mtlmolnet.config import TrainConfig

        super().__init__()
        rng = np.random.default_rng(seed)
        mols = molgen.molecules(rng, n_rows, *atoms)
        self.csv_path = workdir / "dataset.csv"
        names = molgen.write_dataset(self.csv_path, mols, counts, rules, rng, noise=noise)
        molgen.write_tasks(workdir / "tasks.json", names)
        self.qc_path = None
        if use_qc:
            self.qc_path = workdir / "qc.csv"
            molgen.write_qc(self.qc_path, molgen.qc_values(rng, mols))
        self.specs = data.load_task_specs(workdir / "tasks.json")
        self.cfg = TrainConfig(seed=seed, **config)
        self.auroc_floor = auroc_floor
        self.table = None
        self.clock = StepClock(autodiff.Adam)
        self.clock.install()
        self.walls, self.aurocs, self.histories = [], [], []

    def setup(self):
        from mtlmolnet import data

        t0 = _perf()
        table = data.load_dataset(self.csv_path, self.specs)
        data.prepare_table(table, qc_path=self.qc_path)
        elapsed = _perf() - t0
        self.table = table
        self.raw_blocks = list(table.blocks)
        self.n_train = int((table.splits == 0).any(axis=1).sum())
        return elapsed

    def unit(self):
        from mtlmolnet import model

        self.table.blocks = list(self.raw_blocks)
        self.clock.last = None
        t0 = _perf()
        result = model.train(self.table, self.cfg, progress=self.clock.epoch_end)
        self.walls.append(_perf() - t0)
        losses = [float(row["loss"]) for row in result.history]
        scores = [row["val_metric"] for row in result.history
                  if row["epoch"] == result.best_epoch and row["val_metric"] is not None]
        self.histories.append(losses)
        self.aurocs.append(float(np.mean(scores)) if scores else float("nan"))

    def close(self):
        self.clock.uninstall()

    def timed_samples(self):
        return len(self.clock.durations)

    def attempted(self):
        return self.clock.steps

    def failed(self):
        return 0

    def metrics(self):
        return {
            "mol_per_s": self.n_train * self.cfg.epochs * len(self.walls) / sum(self.walls),
            "op_ms_p90": percentile(self.step_ms(), 90),
            "peak_rss_mb": peak_rss_mb(),
            "val_auroc_mean": self.aurocs[0],
        }

    def samples(self):
        return {"train_calls": len(self.walls), "steps": self.clock.steps,
                "timed_steps": len(self.clock.durations),
                "step_ms": percentiles(self.step_ms())}

    def step_ms(self):
        return [d * 1e3 for d in self.clock.durations]

    def check(self):
        failures = []
        if not all(math.isfinite(v) for h in self.histories for v in h):
            failures.append("training loss is not finite")
        if any(h != self.histories[0] for h in self.histories):
            failures.append("repeated model.train calls returned different histories")
        if not self.aurocs or not self.aurocs[0] >= self.auroc_floor:
            failures.append(f"val_auroc_mean {self.aurocs[:1]} below floor {self.auroc_floor}")
        return failures


def train_paper(seed, workdir, env):
    """Paper configuration: qw-mtl with quantum descriptors, 13 tasks whose
    label counts span 30x, on 20-28 heavy-atom molecules."""
    n_rows = 625  # every 5th row is val: 500 train rows = 10 full batches
    return TrainWorkload(
        seed, workdir, n_rows=n_rows, atoms=(20, 28),
        counts=[int(round(n_rows * 30 ** (-t / 12))) for t in range(13)],
        rules=molgen.PAPER_RULES, noise=0.0, use_qc=True,
        config=dict(variant="qw-mtl", hidden=300, depth=3, ffn_hidden=300,
                    batch_size=50, epochs=3),
        auroc_floor=0.7,
    )


def train_small(seed, workdir, env):
    """c06 configuration: 4 tasks sharing one rule with 20 % label noise and
    50/200/800/3200 labels, on 3-8 heavy-atom molecules."""
    return TrainWorkload(
        seed, workdir, n_rows=3200, atoms=(3, 8), counts=[3200, 800, 200, 50],
        rules=["nitrogen"] * 4, noise=0.2, use_qc=False,
        config=dict(variant="multi-rdkit-beta", hidden=16, depth=2, ffn_hidden=8,
                    batch_size=64, epochs=10),
        auroc_floor=0.55,
    )


class Request:
    def __init__(self, index, mols, qc_table, workdir):
        self.smiles = [m.smiles for m in mols]
        self.qc_rows = [qc_table.get(s) for s in self.smiles]
        self.declared = [i for i, m in enumerate(mols) if "aromatic_n_substituted" in m.tags]
        self.smi_path = workdir / f"request{index}.smi"
        self.qc_path = workdir / f"request{index}_qc.csv"
        self.smi_path.write_text("\n".join(self.smiles) + "\n")
        molgen.write_qc(self.qc_path, {s: v for s, v in zip(self.smiles, self.qc_rows)
                                       if v is not None})


class PredictScreen(Workload):
    """``mtlmolnet predict`` on successive 50-SMILES requests from a
    10-40 atom library, against the 13-task paper-configuration checkpoint
    that ``checkpoint_job.py`` trains in a child process."""

    SETUP_IN_PROCESS = False
    N_REQUESTS = 40
    REQUEST_SIZE = 50
    ATOMS = (10, 40)
    CHECKED_REQUESTS = 3
    PROBE_REQUESTS = 2
    AUROC_FLOOR = 0.7  # the checkpoint is a train-paper unit

    def __init__(self, seed, workdir, env):
        super().__init__()
        # a stream apart from the one that generates the training set
        rng = np.random.default_rng([seed, 1])
        self.env = env
        mols = molgen.molecules(rng, self.N_REQUESTS * self.REQUEST_SIZE, *self.ATOMS)
        qc_table = molgen.qc_values(rng, mols)
        self.requests = [
            Request(i, mols[i * self.REQUEST_SIZE:(i + 1) * self.REQUEST_SIZE],
                    qc_table, workdir)
            for i in range(self.N_REQUESTS)
        ]
        # probe requests each carry one declared N-substituted aromatic
        # nitrogen among ordinary molecules
        self.probes = []
        for p in range(self.PROBE_REQUESTS):
            batch = molgen.molecules(rng, self.REQUEST_SIZE - 1, *self.ATOMS)
            batch.insert(int(rng.integers(self.REQUEST_SIZE)),
                         molgen.molecule(rng, *self.ATOMS, declared=True))
            qc_table.update(molgen.qc_values(rng, batch))
            self.probes.append(Request(f"_probe{p}", batch, qc_table, workdir))
        self.ckpt_path = workdir / "screen.ckpt"
        self.out_path = workdir / "predictions.csv"
        job = subprocess.run(
            [sys.executable, str(HERE / "checkpoint_job.py"), "--seed", str(seed),
             "--workdir", str(workdir), "--out", str(self.ckpt_path)],
            env=env, capture_output=True, text=True, timeout=150, check=False)
        if job.returncode != 0:
            raise RuntimeError(f"checkpoint job failed:\n{job.stderr}")
        self.val_auroc = json.loads(job.stdout.strip().splitlines()[-1])["val_auroc_mean"]
        self.task_names = [t["name"] for t in reference.read_checkpoint(self.ckpt_path)[1]["tasks"]]
        self.next = 0
        self.walls, self.returned, self.submitted = [], 0, 0
        self.checked = {}  # request index -> probabilities from its first pass
        self.failures = []
        self.probe_report = {}

    def setup(self):
        """Time to import ``mtlmolnet.cli`` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import mtlmolnet.cli; "
                "print(repr(time.perf_counter() - t))")
        proc = subprocess.run([sys.executable, "-c", code], env=self.env,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    def _predict(self, request):
        from mtlmolnet import cli

        return cli.main(["predict", "--checkpoint", str(self.ckpt_path),
                         "--data", str(request.smi_path), "--qc", str(request.qc_path),
                         "--out", str(self.out_path)])

    def _read_output(self, request):
        """Probabilities [N x T] with NaN rows for molecules without a row.

        Output rows are matched to the request in order, so a dropped
        molecule or a repeated SMILES cannot shift later rows.
        """
        probs = np.full((len(request.smiles), len(self.task_names)), np.nan)
        with open(self.out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        i = 0
        for row in rows:
            while i < len(request.smiles) and request.smiles[i] != row["smiles"]:
                i += 1
            if i == len(request.smiles):
                break
            try:
                probs[i] = [float(row[name]) for name in self.task_names]
            except (KeyError, TypeError, ValueError):
                pass
            i += 1
        return probs

    def unit(self):
        index = self.next % len(self.requests)
        self.next += 1
        request = self.requests[index]
        t0 = _perf()
        code = self._predict(request)
        self.walls.append(_perf() - t0)
        self.submitted += len(request.smiles)
        if code != 0:
            self.failures.append(f"request {index} exited with code {code}")
            return
        probs = self._read_output(request)
        ok = np.isfinite(probs).all(axis=1)
        self.returned += int(ok.sum())
        if not ok.all():
            self.failures.append(f"request {index}: {int((~ok).sum())} molecule(s) "
                                 "without a finite probability row")
        if index < self.CHECKED_REQUESTS and index not in self.checked:
            self.checked[index] = probs

    def timed_samples(self):
        return len(self.walls)

    def probe(self):
        """Requests carrying a declared N-substituted aromatic nitrogen.

        Today's parser rejects those molecules, so each request must end
        with exit code 3 and a one-line ``error:`` message, never a
        traceback. A request that succeeds must match the reference.
        """
        import contextlib
        import io

        lost = 0
        rejected = 0
        for request in self.probes:
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = self._predict(request)
            except Exception as exc:  # an escaped exception is a traceback
                self.failures.append(f"probe raised {type(exc).__name__}: {exc}")
                lost += len(request.smiles)
                continue
            lines = err.getvalue().strip().splitlines()
            if code == 3:
                rejected += 1
                lost += len(request.smiles)
                if len(lines) != 1 or not lines[0].startswith("error: "):
                    self.failures.append(f"probe exit 3 without a typed message: {lines}")
            elif code == 0:
                probs = self._read_output(request)
                ok = np.isfinite(probs).all(axis=1)
                lost += int((~ok).sum())
                if not set(np.flatnonzero(~ok)) <= set(request.declared):
                    self.failures.append("probe lost molecules that were not declared")
                self._compare(request, probs, ok)
            else:
                self.failures.append(f"probe exited with code {code}: {lines}")
                lost += len(request.smiles)
        self.probe_report = {
            "requests": len(self.probes),
            "molecules": sum(len(r.smiles) for r in self.probes),
            "declared_molecules": sum(len(r.declared) for r in self.probes),
            "rejected_requests": rejected,
            "molecules_lost": lost,
        }

    def _compare(self, request, probs, rows):
        ref = reference.probabilities(self.ckpt_path, request.smiles, request.qc_rows)
        diff = np.abs(probs[rows] - ref[rows])
        if diff.size and not diff.max() <= 1e-9:
            self.failures.append(
                f"{request.smi_path.name}: predict differs from the reference "
                f"forward pass by {diff.max():.3g}")

    def attempted(self):
        return self.submitted

    def failed(self):
        return self.submitted - self.returned

    def metrics(self):
        return {
            "mol_per_s": self.returned / self.stream_wall,
            "op_ms_p90": percentile(self.request_ms(), 90),
            "peak_rss_mb": peak_rss_mb(),
            "val_auroc_mean": self.val_auroc,
        }

    def samples(self):
        return {"requests": len(self.walls), "molecules": self.submitted,
                "request_ms": percentiles(self.request_ms()),
                "probe": self.probe_report}

    def request_ms(self):
        return [w * 1e3 for w in self.walls]

    def check(self):
        if not self.val_auroc >= self.AUROC_FLOOR:
            self.failures.append(f"checkpoint val_auroc_mean {self.val_auroc} below floor "
                                 f"{self.AUROC_FLOOR}")
        for index, probs in sorted(self.checked.items()):
            self._compare(self.requests[index], probs, np.isfinite(probs).all(axis=1))
        if len(self.checked) < min(self.CHECKED_REQUESTS, len(self.walls)):
            self.failures.append("no successful request was checked against the reference")
        return self.failures


WORKLOADS = {
    "train-paper": train_paper,
    "train-small": train_small,
    "predict-screen": PredictScreen,
}
