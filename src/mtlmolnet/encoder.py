"""Directed-edge message passing encoder producing molecular fingerprints.

Hidden states live on directed bonds. Each edge (v->w) is initialised from
the source atom and bond features; at every step it aggregates the states
of edges pointing into v, excluding its own reverse edge (w->v), so
information never bounces straight back. A final atom readout pools
incoming edge states and a mean over atoms yields the fingerprint.

``encode_batch`` runs the same recurrence over the disjoint union of many
molecule graphs at once; per-molecule results are identical to running
them one at a time because no edges cross molecules. A table's graphs are
packed once into a ``GraphPack`` of flat arrays (like Chemprop's
``BatchMolGraph``), and a batch's union is a vectorised gather from it.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from . import smiles
from .autodiff import ShapeMismatch, Tensor
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
    hidden: int = 300

    def tensors(self):
        return [("encoder.w_in", self.w_in), ("encoder.w_msg", self.w_msg),
                ("encoder.w_out", self.w_out)]


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
                         w_out=tensors["encoder.w_out"], depth=cfg.depth,
                         hidden=cfg.hidden)


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
    molecule, the graph's own order; ``src``/``dst`` index batch atoms and
    ``rev`` indexes batch edges.
    """

    atom_features: np.ndarray  # [A x F_a]
    edge_features: np.ndarray  # [E x F_b], the bond features of each edge
    src: np.ndarray  # [E]
    dst: np.ndarray  # [E]
    rev: np.ndarray  # [E]
    mol_of_atom: np.ndarray  # [A]
    inv_atoms: np.ndarray  # [B x 1], 1 / atom count


@dataclass
class GraphPack:
    """Featurized molecule graphs packed once into flat arrays with offsets.

    Row i owns atoms ``atom_off[i]:atom_off[i+1]``, directed edges
    ``edge_off[i]:edge_off[i+1]`` and bonds ``bond_off[i]:bond_off[i+1]``.
    ``edges`` holds each graph's ``directed_edges`` unchanged, so its
    columns are molecule-local (src atom, dst atom, bond, reverse edge).
    """

    graphs: list
    atom_features: np.ndarray  # [A x F_a]
    bond_features: np.ndarray  # [M x F_b], one row per bond
    edges: np.ndarray  # [E x 4]
    atom_off: np.ndarray  # [N + 1]
    edge_off: np.ndarray  # [N + 1]
    bond_off: np.ndarray  # [N + 1]

    def gather(self, rows):
        """The UnionGraph of the graphs at ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        n_atoms = self.atom_off[rows + 1] - self.atom_off[rows]
        n_edges = self.edge_off[rows + 1] - self.edge_off[rows]
        atom_base = np.cumsum(n_atoms) - n_atoms  # first batch atom of each row
        edge_base = np.cumsum(n_edges) - n_edges
        atom_idx = (np.repeat(self.atom_off[rows] - atom_base, n_atoms)
                    + np.arange(n_atoms.sum()))
        edge_idx = (np.repeat(self.edge_off[rows] - edge_base, n_edges)
                    + np.arange(n_edges.sum()))
        e = self.edges[edge_idx]
        atom_shift = np.repeat(atom_base, n_edges)
        return UnionGraph(
            atom_features=self.atom_features[atom_idx],
            edge_features=self.bond_features[
                e[:, 2] + np.repeat(self.bond_off[rows], n_edges)],
            src=e[:, 0] + atom_shift,
            dst=e[:, 1] + atom_shift,
            rev=e[:, 3] + np.repeat(edge_base, n_edges),
            mol_of_atom=np.repeat(np.arange(len(rows)), n_atoms),
            inv_atoms=(1.0 / n_atoms)[:, None],
        )


def pack_graphs(graphs, featurize=False):
    """Pack MolGraphs into one GraphPack.

    With ``featurize`` each graph is featurized as it is copied in, and its
    arrays are rebound as views into the pack, so a table's features are
    never held twice. Otherwise the graphs must be featurized already and
    are left unchanged.
    """
    if not graphs:
        raise EmptyMolecule("empty graph batch")
    for g in graphs:
        if not g.atoms:
            raise EmptyMolecule("graph has no atoms")
        if not featurize and (g.atom_features is None or g.bond_features is None):
            raise ShapeMismatch("graph is not featurized")
    if featurize:
        fa, fb = smiles.ATOM_FEATURE_DIM, smiles.BOND_FEATURE_DIM
    else:
        fa, fb = graphs[0].atom_features.shape[1], graphs[0].bond_features.shape[1]
    ao = [0, *accumulate(g.n_atoms for g in graphs)]
    bo = [0, *accumulate(g.n_bonds for g in graphs)]
    eo = [0, *accumulate(len(g.directed_edges) for g in graphs)]
    pack = GraphPack(graphs=graphs, atom_features=np.empty((ao[-1], fa)),
                     bond_features=np.empty((bo[-1], fb)),
                     edges=np.empty((eo[-1], 4), dtype=np.int64),
                     atom_off=np.array(ao, dtype=np.int64),
                     edge_off=np.array(eo, dtype=np.int64),
                     bond_off=np.array(bo, dtype=np.int64))
    for i, g in enumerate(graphs):
        if featurize:
            smiles.featurize(g)
        atoms, bonds, edges = (slice(ao[i], ao[i + 1]), slice(bo[i], bo[i + 1]),
                               slice(eo[i], eo[i + 1]))
        try:
            pack.atom_features[atoms] = g.atom_features
            pack.bond_features[bonds] = g.bond_features
        except ValueError as err:
            raise ShapeMismatch(f"graph {i} does not fit the pack: {err}") from None
        pack.edges[edges] = g.directed_edges
        if featurize:
            g.atom_features = pack.atom_features[atoms]
            g.bond_features = pack.bond_features[bonds]
            g.directed_edges = pack.edges[edges]
    return pack


def encode_batch(graphs, params, dropout=0.0, rng=None, union=None):
    """Encode a list of featurized MolGraphs into a [B x H] Tensor.

    ``union`` is the graphs' UnionGraph gathered from a GraphPack that
    holds them; without it the list is packed here.
    """
    if union is None:
        union = pack_graphs(graphs).gather(np.arange(len(graphs)))

    if params.w_in.data.shape[1] != params.hidden:
        raise ShapeMismatch("w_in width does not match hidden size")
    if params.w_msg.data.shape != (params.hidden, params.hidden):
        raise ShapeMismatch("w_msg must be square [H x H]")

    atom_feats = union.atom_features
    n_atoms_total, fa = atom_feats.shape
    fb = params.w_in.data.shape[0] - fa
    if union.edge_features.shape[1] != fb:
        raise ShapeMismatch(
            f"w_in expects {params.w_in.data.shape[0]} input dims (atom {fa} + bond {fb})"
        )
    if params.w_out.data.shape[0] != fa + params.hidden:
        raise ShapeMismatch("w_out input dim must be F_a + H")
    src, dst, rev = union.src, union.dst, union.rev

    # edge inputs [x_v || e_vw] are constants; keep them off the tape
    edge_in = Tensor(np.concatenate([atom_feats[src], union.edge_features], axis=1))
    h0 = ad.relu(ad.matmul(edge_in, params.w_in))
    h = h0
    for _ in range(params.depth - 1):
        incoming = ad.scatter_add(h, dst, n_atoms_total)
        msg = ad.sub(ad.index_select(incoming, src), ad.index_select(h, rev))
        h = ad.relu(ad.add(h0, ad.matmul(msg, params.w_msg)))
        h = _maybe_dropout(h, dropout, rng)

    pooled_edges = ad.scatter_add(h, dst, n_atoms_total)
    readout_in = ad.concat([Tensor(atom_feats), pooled_edges], axis=1)
    atom_h = ad.relu(ad.matmul(readout_in, params.w_out))
    atom_h = _maybe_dropout(atom_h, dropout, rng)

    mol_sum = ad.scatter_add(atom_h, union.mol_of_atom, len(union.inv_atoms))
    return ad.mul(mol_sum, Tensor(union.inv_atoms))


def _maybe_dropout(x, p, rng):
    if p <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout requires an rng")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return ad.mul(x, Tensor(mask))


def encode(g, params):
    """Encode one featurized MolGraph into a Fingerprint (vector of length H)."""
    z = encode_batch([g], params)
    return Fingerprint(z=z.data[0].copy())


def count_parameters(cfg, n_tasks):
    """Exact count of learnable scalars for a model configuration: the sizes
    in its parameter layout, ``log_beta`` only where it is learned."""
    return sum(math.prod(shape) for name, shape in cfg.param_shapes(n_tasks)
               if name != "log_beta" or cfg.learnable_beta)
