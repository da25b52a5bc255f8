"""Training configuration, model variant layouts and the parameter layout.

Variants toggle two independent pieces: whether the quantum-descriptor
block (4 values + 4-bit mask) is fused into the representation, and
whether task-loss weights use the learnable sample-scale exponent or stay
uniform. ``TrainConfig.param_shapes`` states the parameter layout.
"""

import math
import numbers
from dataclasses import dataclass, asdict

from . import smiles
from .features import PHYS_DIM, QC_DIM

VARIANTS = ("multi-rdkit", "multi-rdkit-qc", "multi-rdkit-beta", "qw-mtl")


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 50
    lr: float = 1e-3
    seed: int = 0
    variant: str = "qw-mtl"
    hidden: int = 300
    depth: int = 3
    ffn_hidden: int = 300
    beta_min: float = 0.1
    beta_max: float = 6.0
    atom_dim: int = smiles.ATOM_FEATURE_DIM
    bond_dim: int = smiles.BOND_FEATURE_DIM

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed", "hidden", "depth", "ffn_hidden",
                     "atom_dim", "bond_dim"):
            value = getattr(self, name)
            # a bool is an int to Python, and numpy's integer scalars pass as ints
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("batch_size", "hidden", "ffn_hidden", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("lr", "beta_min", "beta_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            setattr(self, name, float(value))
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.beta_min > self.beta_max:
            raise ValueError(f"beta_min {self.beta_min} exceeds beta_max {self.beta_max}")
        for name, dim in (("atom_dim", smiles.ATOM_FEATURE_DIM),
                          ("bond_dim", smiles.BOND_FEATURE_DIM)):
            if getattr(self, name) != dim:
                raise ValueError(f"{name} must be the featurizer's {dim}, "
                                 f"got {getattr(self, name)}")

    @property
    def use_qc(self):
        return self.variant in ("multi-rdkit-qc", "qw-mtl")

    @property
    def learnable_beta(self):
        return self.variant in ("multi-rdkit-beta", "qw-mtl")

    @property
    def fused_dim(self):
        """Length of the head input: fingerprint + descriptors (+ qc + mask)."""
        return self.hidden + PHYS_DIM + (2 * QC_DIM if self.use_qc else 0)

    def param_shapes(self, n_tasks):
        """The model's parameters as ordered ``(name, shape)`` pairs: the
        encoder weights, four tensors per task head, then ``log_beta``.
        Initialisation, the flat parameter store, checkpoint loading and
        the parameter count all read this list."""
        fa, fb, h, f = self.atom_dim, self.bond_dim, self.hidden, self.ffn_hidden
        shapes = [("encoder.w_in", (fa + fb, h)), ("encoder.w_msg", (h, h)),
                  ("encoder.w_out", (fa + h, h))]
        for t in range(n_tasks):
            shapes += [(f"head{t}.w1", (self.fused_dim, f)), (f"head{t}.b1", (f,)),
                       (f"head{t}.w2", (f, 1)), (f"head{t}.b2", (1,))]
        return shapes + [("log_beta", (n_tasks,))]

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})
