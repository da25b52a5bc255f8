"""Training configuration, model variant layouts and the parameter layout.

Variants toggle two independent pieces: whether the quantum-descriptor
block (4 values + 4-bit mask) is fused into the representation, and
whether task-loss weights use the learnable sample-scale exponent or stay
uniform. ``TrainConfig.param_shapes`` states the parameter layout.
"""

import math
from dataclasses import dataclass, asdict

from . import smiles
from .features import PHYS_DIM, QC_DIM

VARIANTS = ("multi-rdkit", "multi-rdkit-qc", "multi-rdkit-beta", "qw-mtl")


def variant_uses_qc(variant):
    return variant in ("multi-rdkit-qc", "qw-mtl")


def variant_learnable_beta(variant):
    return variant in ("multi-rdkit-beta", "qw-mtl")


def fused_dim(hidden, use_qc):
    """Length of the head input: fingerprint + descriptors (+ qc + mask)."""
    return hidden + PHYS_DIM + (2 * QC_DIM if use_qc else 0)


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
    dropout: float = 0.0
    atom_dim: int = smiles.ATOM_FEATURE_DIM
    bond_dim: int = smiles.BOND_FEATURE_DIM

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("batch_size", "hidden", "ffn_hidden", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.beta_min > self.beta_max:
            raise ValueError(f"beta_min {self.beta_min} exceeds beta_max {self.beta_max}")

    @property
    def use_qc(self):
        return variant_uses_qc(self.variant)

    @property
    def learnable_beta(self):
        return variant_learnable_beta(self.variant)

    @property
    def fused_dim(self):
        return fused_dim(self.hidden, self.use_qc)

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
