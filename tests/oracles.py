"""Reference implementations that the package's fused or vectorised code
is tested against bit for bit.

The package fills features and descriptors for a whole pack at once with
numpy (``smiles.fill_features``, ``features.builtin_phys_matrix``); the
per-graph loops here state the same layouts one molecule at a time, one
Python loop per atom and bond.

The encoder runs a message-passing step as two autodiff nodes with
hand-written backwards (``autodiff.message``, ``autodiff.add_relu``);
``message_composed`` and ``add_relu_composed`` state the same step with one
elementary op per node: scatter_add, two row gathers, sub, add and relu.

``model.head_logits`` runs every task head as one autodiff node
(``autodiff.task_heads``); ``heads_composed`` runs them one at a time as
matmul, add, relu, matmul and add, joined by concat.

``metrics.auroc`` and ``metrics.auprc`` find the runs of tied scores with
numpy; ``auroc_loop`` and ``auprc_loop`` walk them one score at a time.

``Tensor.backward`` frees the tape as it walks it; ``backward_keep_tape``
walks it in the same order, calls the deferred terms after it as backward
does, and keeps every node's closure, parents and gradient.

``smiles.parse_smiles`` reads a bracket atom with one regex and marks ring
bonds on a spanning forest; ``parse_bracket_loop`` reads the bracket one
character at a time, and ``ring_bonds_dfs`` finds the ring bonds and the
components with Tarjan's bridge search.
"""

import numpy as np

from mtlmolnet import _kernels
from mtlmolnet import autodiff as ad
from mtlmolnet.features import ATOMIC_MASS, BUILTIN_DESCRIPTOR_NAMES, PHYS_DIM
from mtlmolnet.smiles import _ELEMENTS as ELEMENT_SYMBOLS
from mtlmolnet.smiles import (ATOM_FEATURE_DIM, BOND_FEATURE_DIM, BOND_ORDERS, ELEMENT_ORDER,
                              UnknownAtomToken)

_HALOGENS = {"F", "Cl", "Br", "I"}


def _one_hot(value, choices):
    # trailing slot is the catch-all
    vec = [0.0] * (len(choices) + 1)
    try:
        vec[choices.index(value)] = 1.0
    except ValueError:
        vec[-1] = 1.0
    return vec


def features(g):
    """(atom features [n x 33], bond features [m x 6]) of one parsed graph.

    Atom layout: element one-hot incl. other (14), degree 0-5 (6), formal
    charge -2..+2 incl. other (6), explicit hydrogens 0-4 clamped (5),
    aromatic flag (1), ring flag (1). Bond layout: order one-hot (4),
    conjugated (1), ring flag (1).
    """
    af = np.zeros((len(g.atoms), ATOM_FEATURE_DIM))
    for i, atom in enumerate(g.atoms):
        elem = _one_hot(atom.element, list(ELEMENT_ORDER))
        deg = [0.0] * 6
        deg[min(atom.degree, 5)] = 1.0
        chg = _one_hot(atom.formal_charge, [-2, -1, 0, 1, 2])
        hyd = [0.0] * 5
        hyd[min(atom.explicit_h, 4)] = 1.0
        af[i] = elem + deg + chg + hyd + [float(atom.aromatic), float(atom.in_ring)]

    bf = np.zeros((len(g.bonds), BOND_FEATURE_DIM))
    for i, bond in enumerate(g.bonds):
        bf[i, BOND_ORDERS.index(bond.order)] = 1.0
        bf[i, 4] = float(bond.conjugated)
        bf[i, 5] = float(bond.in_ring)
    return af, bf


def directed_edges(g):
    """[2m x 4] directed edges of one graph: bond i yields a->b, then b->a."""
    edges = np.zeros((2 * len(g.bonds), 4), dtype=np.int64)
    for i, b in enumerate(g.bonds):
        edges[2 * i] = (b.a, b.b, i, 2 * i + 1)
        edges[2 * i + 1] = (b.b, b.a, i, 2 * i)
    return edges


def _component_count(n_atoms, bonds):
    parent = list(range(n_atoms))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in bonds:
        ra, rb = find(b.a), find(b.b)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n_atoms)})


def phys_descriptors(g):
    """The 16 built-in descriptors of one parsed graph, in the order of
    BUILTIN_DESCRIPTOR_NAMES."""
    atoms = g.atoms
    bonds = g.bonds

    weight = 0.0
    for a in atoms:
        weight += ATOMIC_MASS.get(a.element, 0.0)
        weight += a.explicit_h * ATOMIC_MASS["H"]

    heavy = sum(1 for a in atoms if a.element != "H")
    ring_bonds = sum(1 for b in bonds if b.in_ring)
    aromatic_atoms = sum(1 for a in atoms if a.aromatic)
    rotatable = sum(
        1 for b in bonds
        if b.order == "single" and not b.in_ring
        and atoms[b.a].degree >= 2 and atoms[b.b].degree >= 2
    )
    donors = sum(1 for a in atoms if a.element in ("N", "O") and a.explicit_h >= 1)
    acceptors = sum(1 for a in atoms if a.element in ("N", "O"))
    nitrogens = sum(1 for a in atoms if a.element == "N")
    charge_sum = sum(a.formal_charge for a in atoms)
    halogens = sum(1 for a in atoms if a.element in _HALOGENS)
    hetero = sum(1 for a in atoms if a.element not in ("C", "H"))
    degrees = [a.degree for a in atoms]
    n_carbon = sum(1 for a in atoms if a.element == "C")

    return np.array([
        weight,
        float(heavy),
        float(ring_bonds),
        float(aromatic_atoms),
        float(rotatable),
        float(donors),
        float(acceptors),
        float(charge_sum),
        float(halogens),
        float(hetero),
        float(max(degrees)),
        float(np.mean(degrees)),
        aromatic_atoms / len(atoms),
        float(nitrogens),
        float(_component_count(len(atoms), bonds)),
        0.2 * n_carbon - 0.4 * (acceptors),
    ])


def phys_block(g):
    """The built-in descriptors zero-padded to the full 200-dim layout."""
    vec = np.zeros(PHYS_DIM)
    vec[: len(BUILTIN_DESCRIPTOR_NAMES)] = phys_descriptors(g)
    return vec


def gather_rows(x, index):
    """out[i] = x[index[i]] as an autodiff op; its backward scatters the
    gradient into zeros with ``_kernels.scatter_add_rows``."""
    idx = np.asarray(index, dtype=np.int64)
    shape = x.data.shape

    def backward_fn(g):
        acc = np.zeros(shape)
        _kernels.scatter_add_rows(g, idx, acc)
        return (acc,)

    return ad._make(x.data[idx], "gather_rows", (x,), backward_fn)


def message_composed(h, src, dst, num_atoms):
    """``autodiff.message`` from elementary ops, gathering each edge's
    reverse by an explicit index ``e ^ 1``."""
    incoming = ad.scatter_add(h, dst, num_atoms)
    rev = np.arange(len(src)) ^ 1
    return ad.sub(gather_rows(incoming, src), gather_rows(h, rev))


def add_relu_composed(a, b, *, out=None):
    """``autodiff.add_relu`` from elementary ops. ``out`` is taken and
    ignored: writing over b changes no bits, only where they are stored."""
    return ad.relu(ad.add(a, b))


def heads_composed(x, heads):
    """``model.head_logits`` from elementary ops, one head at a time."""
    cols = []
    for t in range(len(heads)):
        head = heads[t]
        hidden = ad.relu(ad.add(ad.matmul(x, head.w1), head.b1))
        cols.append(ad.add(ad.matmul(hidden, head.w2), head.b2))
    return ad.concat(cols, axis=1)


def backward_keep_tape(root):
    """``Tensor.backward`` of a scalar root, freeing nothing: deferred terms
    are called after the last node, in the order they were met."""
    order = ad._toposort(root)
    root.grad = np.ones_like(root.data)
    deferred = []
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward_fn(node.grad)):
            if callable(g):
                deferred.append((parent, g))
            elif g is not None:
                parent.grad = g if parent.grad is None else parent.grad + g
    for leaf, term in deferred:
        g = term()
        leaf.grad = g if leaf.grad is None else leaf.grad + g


def auroc_loop(scores, labels):
    """``metrics.auroc``, walking each tie run with a Python loop."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        # average 1-based rank over the tie run [i, j]
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auprc_loop(scores, labels):
    """``metrics.auprc``, walking each tie run with a Python loop."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="stable")
    ordered = labels[order]
    sorted_scores = scores[order]
    ap = 0.0
    hits = 0
    i = 0
    n = len(order)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        block_pos = int((ordered[i : j + 1] == 1).sum())
        hits += block_pos
        if block_pos:
            ap += block_pos * hits / (j + 1)
        i = j + 1
    return ap / n_pos


def parse_bracket_loop(body, offset):
    """``smiles._parse_bracket``, one character at a time."""
    i = 0
    n = len(body)
    while i < n and body[i].isdigit():  # isotope, accepted and ignored
        i += 1
    if i >= n:
        raise UnknownAtomToken("bracket atom lacks an element symbol", offset)
    aromatic = False
    if body[i].isupper():
        element = body[i]
        i += 1
        if i < n and body[i].islower():
            element += body[i]
            i += 1
        if element not in ELEMENT_SYMBOLS:
            raise UnknownAtomToken(f"unknown element symbol {element!r}", offset)
    elif body[i].islower():
        two = body[i : i + 2]
        if two == "se" or two == "as":
            element = two.capitalize()
            i += 2
        elif body[i] in "bcnops":
            element = body[i].upper()
            i += 1
        else:
            raise UnknownAtomToken(f"unknown aromatic symbol {body[i]!r}", offset)
        aromatic = True
    else:
        raise UnknownAtomToken(f"bad bracket atom content {body!r}", offset)
    while i < n and body[i] == "@":  # chirality, ignored
        i += 1
    explicit_h = 0
    if i < n and body[i] == "H":
        i += 1
        explicit_h = 1
        if i < n and body[i].isdigit():  # one digit
            explicit_h = int(body[i])
            i += 1
    charge = 0
    if i < n and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        ch = body[i]
        i += 1
        digits = ""
        while i < n and body[i].isdigit():
            digits += body[i]
            i += 1
        if digits:
            charge = sign * int(digits)
        else:
            charge = sign
            while i < n and body[i] == ch:
                charge += sign
                i += 1
    if i < n and body[i] == ":":  # atom class, ignored
        i += 1
        if i >= n or not body[i].isdigit():
            raise UnknownAtomToken(f"bad atom class in {body!r}", offset)
        while i < n and body[i].isdigit():
            i += 1
    if i != n:
        raise UnknownAtomToken(f"unparsed bracket content {body[i:]!r}", offset)
    if not (-4 <= charge <= 4):
        raise UnknownAtomToken(f"formal charge {charge} out of range", offset)
    return element, aromatic, explicit_h, charge


def ring_bonds_dfs(n_atoms, pairs):
    """(ring flag per bond, component count) of the bonds ``pairs`` by an
    iterative DFS that marks each bond as ring or bridge and counts its
    roots."""
    adj = [[] for _ in range(n_atoms)]
    for k, (a, b) in enumerate(pairs):
        adj[a].append((b, k))
        adj[b].append((a, k))

    ring = [False] * len(pairs)
    disc = [-1] * n_atoms
    low = [0] * n_atoms
    timer = 0
    roots = 0
    for root in range(n_atoms):
        if disc[root] != -1:
            continue
        roots += 1
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, pedge, it = stack[-1]
            advanced = False
            for w, k in it:
                if k == pedge:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, k, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
                ring[k] = True  # back edge closes a cycle
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] <= disc[u]:
                    ring[pedge] = True
    return ring, roots
