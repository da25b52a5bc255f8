"""Directed-edge message passing encoder producing molecular fingerprints.

Hidden states live on directed bonds. Each edge (v->w) is initialised from
the source atom and bond features; at every step it aggregates the states
of edges pointing into v, excluding its own reverse edge (w->v), so
information never bounces straight back. A final atom readout pools
incoming edge states and a mean over atoms yields the fingerprint. A step
is two autodiff nodes, ``message`` (aggregate and subtract the reverse
edge) and ``add_relu`` around the message matmul, in training and serving
alike. The directed edges come in pairs (edge 2i+1 reverses edge 2i), so
the reverse edge is a view and no reverse index is stored. Each activation
(the input projection's relu, each step's ``add_relu``, the readout's relu)
overwrites the matmul output it consumes, so the tape holds one array per
activation. Under ``no_grad`` a step frees the old state once its message
is built and the message once the matmul has read it, and its ``add_relu``
allocates nothing.

``encode_batch`` runs the same recurrence over the disjoint union of many
molecule graphs at once; per-molecule results are identical to running
them one at a time because no edges cross molecules. ``pack_codes`` is the
one packer: a table's parsed codes (``smiles.parse_codes``) are featurized
once, all together, into a ``GraphPack`` of flat arrays (like Chemprop's
``BatchMolGraph``), and a batch's union is a vectorised gather from it,
whose directed edges come from the rows' bond ends in the one layout of
``smiles._directed_edges``. A list of graphs (``MolGraph`` views of rows
of codes) is packed by joining its rows' codes, with the offset arithmetic
of the gather (``GraphCodes.spans``); packing writes nothing into the
graphs. A list encoded without a union is packed that way.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import smiles
from .autodiff import Tensor
from .config import TrainConfig


class EmptyMolecule(ValueError):
    pass


@dataclass
class EncoderParams:
    """Message passing weights; no bias terms.

    w_in: [(F_a + F_b) x H], w_msg: [H x H], w_out: [(F_a + H) x H].
    """

    w_in: Tensor
    w_msg: Tensor
    w_out: Tensor
    depth: int = 3


@dataclass
class Fingerprint:
    z: np.ndarray


def init_weights(tensors, rng):
    """Draw each 2-D weight among ``tensors`` in place, in order, from the
    Xavier-uniform distribution; 1-D tensors (biases, ``log_beta``) keep
    their zeros."""
    for t in tensors:
        if t.data.ndim == 2:
            n_in, n_out = t.data.shape
            limit = np.sqrt(6.0 / (n_in + n_out))
            t.data[...] = rng.uniform(-limit, limit, size=(n_in, n_out))


def encoder_params(tensors, cfg):
    """EncoderParams over the ``encoder.*`` entries of a store's tensors."""
    return EncoderParams(w_in=tensors["encoder.w_in"], w_msg=tensors["encoder.w_msg"],
                         w_out=tensors["encoder.w_out"], depth=cfg.depth)


def init_encoder_params(atom_dim, bond_dim, hidden, depth, rng):
    """Freshly initialised encoder weights, in a store of their own."""
    cfg = TrainConfig(atom_dim=atom_dim, bond_dim=bond_dim, hidden=hidden, depth=depth)
    store = ad.ParamStore(cfg.param_shapes(n_tasks=0))
    init_weights(store.tensors.values(), rng)
    return encoder_params(store.tensors, cfg)


@dataclass
class UnionGraph:
    """The disjoint union of a batch of molecule graphs, as flat arrays.

    Atoms and directed edges keep the batch's molecule order and, within a
    molecule, the graph's own order; ``src``/``dst`` index batch atoms. The
    edges keep the pair layout of ``smiles._directed_edges`` (the reverse of
    edge e is e ^ 1), so no reverse-edge index is stored.
    """

    atom_features: np.ndarray  # [A x F_a]
    edge_features: np.ndarray  # [E x F_b], the bond features of each edge
    src: np.ndarray  # [E]
    dst: np.ndarray  # [E]
    mol_of_atom: np.ndarray  # [A]
    inv_atoms: np.ndarray  # [B x 1], 1 / atom count


@dataclass
class GraphPack:
    """Parsed molecules packed once into flat arrays with offsets.

    ``codes`` are the ``smiles.GraphCodes`` the features were filled from:
    ``gather`` reads each row's offsets and bond ends from them, and the
    built-in descriptors read them too. ``graphs`` holds a ``MolGraph``
    view of each row, made once per pack.
    """

    codes: smiles.GraphCodes
    atom_features: np.ndarray  # [A x F_a]
    bond_features: np.ndarray  # [M x F_b], one row per bond
    graphs: list

    def gather(self, rows):
        """The UnionGraph of the molecules at ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        atom_idx, bond_idx, n_atoms, n_bonds = self.codes.spans(rows)
        atom_base = np.cumsum(n_atoms) - n_atoms  # first batch atom of each row
        src, dst, bond = smiles._directed_edges(
            self.codes.ends[:, bond_idx] + np.repeat(atom_base, n_bonds))[:3]
        return UnionGraph(
            atom_features=self.atom_features[atom_idx],
            edge_features=self.bond_features[bond_idx[bond]],
            src=src,
            dst=dst,
            mol_of_atom=np.repeat(np.arange(len(rows)), n_atoms),
            inv_atoms=(1.0 / n_atoms)[:, None],
        )


def pack_codes(codes):
    """Pack parsed molecules' ``smiles.GraphCodes`` into one GraphPack,
    filling the features of all of them at once."""
    if not np.diff(codes.atom_off).all():
        raise EmptyMolecule("graph has no atoms")
    atom_features, bond_features = smiles.fill_features(codes)
    return GraphPack(codes=codes, atom_features=atom_features, bond_features=bond_features,
                     graphs=[smiles.MolGraph(codes, row) for row in range(len(codes.components))])


def pack_graphs(graphs):
    """Pack a list of MolGraph views into one GraphPack: ``pack_codes`` of
    their rows' codes joined in list order. The graphs are left as they
    were."""
    if not graphs:
        raise EmptyMolecule("empty graph batch")
    return pack_codes(smiles.graph_codes(graphs))


def encode_batch(graphs, params, union=None):
    """Encode a list of parsed MolGraphs into a [B x H] Tensor.

    ``union`` is the graphs' UnionGraph gathered from a GraphPack that
    holds them; without it the list is packed here.
    """
    if union is None:
        union = pack_graphs(graphs).gather(np.arange(len(graphs)))

    atom_feats = union.atom_features
    n_atoms_total = len(atom_feats)
    src, dst = union.src, union.dst

    # edge inputs [x_v || e_vw] are constants, kept off the tape and named
    # by nothing, so under no_grad they go once the matmul has read them.
    # Each activation overwrites the matmul output it reads (out=), which no
    # backward reads, so a tape keeps one array per layer, not two.
    h0 = ad.matmul(Tensor(np.concatenate([atom_feats[src], union.edge_features], axis=1)),
                   params.w_in)
    h0 = ad.relu(h0, out=h0)
    h = h0
    for _ in range(params.depth - 1):
        # h names each array in turn: under no_grad the old state is freed
        # once the message is built, the message once the matmul has read
        # it, and add_relu allocates nothing
        h = ad.message(h, src, dst, n_atoms_total)
        h = ad.matmul(h, params.w_msg)
        h = ad.add_relu(h0, h, out=h)

    pooled_edges = ad.scatter_add(h, dst, n_atoms_total)
    readout_in = ad.concat([Tensor(atom_feats), pooled_edges], axis=1)
    atom_h = ad.matmul(readout_in, params.w_out)
    atom_h = ad.relu(atom_h, out=atom_h)

    mol_sum = ad.scatter_add(atom_h, union.mol_of_atom, len(union.inv_atoms))
    return ad.mul(mol_sum, Tensor(union.inv_atoms))


def encode(g, params):
    """Encode one parsed MolGraph into a Fingerprint (vector of length H)."""
    z = encode_batch([g], params)
    return Fingerprint(z=z.data[0].copy())


def count_parameters(cfg, n_tasks):
    """Exact count of learnable scalars for a model configuration: the sizes
    in its parameter layout, ``log_beta`` only where it is learned."""
    return sum(math.prod(shape) for name, shape in cfg.param_shapes(n_tasks)
               if name != "log_beta" or cfg.learnable_beta)
