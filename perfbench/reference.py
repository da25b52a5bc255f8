"""Plain-numpy forward pass of a saved model, independent of mtlmolnet's
autodiff, encoder, model and checkpoint code.

It reads the ``MTLMOLNET-CKPT-1`` file format directly (header line, JSON
manifest line, little-endian float64 blob) and runs the directed-edge
encoder one molecule at a time, aggregating with dense incidence matrices
instead of scatter kernels. Only SMILES parsing and the built-in
descriptors come from mtlmolnet, since they prepare the input rather than
compute the forward pass.
"""

import json

import numpy as np

MAGIC = b"MTLMOLNET-CKPT-1"


def read_checkpoint(path):
    """Returns (arrays by name, manifest)."""
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n")
        if header != MAGIC:
            raise ValueError(f"{path}: unknown checkpoint header {header!r}")
        manifest = json.loads(fh.readline())
        blob = fh.read()
    arrays = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arrays[entry["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=entry["offset"]).reshape(shape)
    return arrays, manifest


def _relu(x):
    return np.maximum(x, 0.0)


def fingerprint(graph, w_in, w_msg, w_out, depth):
    """Encoder output for one featurized graph, from its bond list."""
    src, dst, bond = [], [], []
    for i, b in enumerate(graph.bonds):
        src += [b.a, b.b]
        dst += [b.b, b.a]
        bond += [i, i]
    n_edges = len(src)
    rev = np.arange(n_edges) ^ 1  # edge 2i+1 reverses edge 2i
    into = np.zeros((graph.n_atoms, n_edges))  # atom <- edges pointing at it
    into[dst, np.arange(n_edges)] = 1.0
    af, bf = graph.atom_features, graph.bond_features
    h0 = _relu(np.hstack([af[src], bf[bond]]) @ w_in)
    h = h0
    for _ in range(depth - 1):
        msg = (into @ h)[src] - h[rev]
        h = _relu(h0 + msg @ w_msg)
    atom_h = _relu(np.hstack([af, into @ h]) @ w_out)
    return atom_h.mean(axis=0)


def probabilities(ckpt_path, smiles_list, qc_rows):
    """[N x T] probabilities. ``qc_rows[i]`` is a list of 4 values or None
    entries (missing), or None when the molecule has no quantum row."""
    from mtlmolnet import features, smiles

    arrays, manifest = read_checkpoint(ckpt_path)
    cfg = manifest["config"]
    n_tasks = len(manifest["tasks"])
    use_qc = cfg["variant"] in ("multi-rdkit-qc", "qw-mtl")
    out = np.zeros((len(smiles_list), n_tasks))
    for i, smi in enumerate(smiles_list):
        g = smiles.featurize(smiles.parse_smiles(smi))
        z = fingerprint(g, arrays["encoder.w_in"], arrays["encoder.w_msg"],
                        arrays["encoder.w_out"], cfg["depth"])
        phys = ((features.builtin_phys_block(g) - arrays["stats.phys_mean"])
                / arrays["stats.phys_std"])
        parts = [z, phys]
        if use_qc:
            row = qc_rows[i] or [None] * 4
            mask = np.array([v is not None for v in row], dtype=np.float64)
            vals = np.array([0.0 if v is None else v for v in row])
            qc = np.where(mask == 1.0,
                          (vals - arrays["stats.qc_mean"]) / arrays["stats.qc_std"], 0.0)
            parts += [qc, mask]
        x = np.concatenate(parts)
        for t in range(n_tasks):
            hidden = _relu(x @ arrays[f"head{t}.w1"] + arrays[f"head{t}.b1"])
            logit = hidden @ arrays[f"head{t}.w2"][:, 0] + arrays[f"head{t}.b2"][0]
            out[i, t] = 1.0 / (1.0 + np.exp(-logit))
    return out
