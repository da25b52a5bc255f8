"""The parser's bracket pattern and ring-marking pass against the oracles.

``smiles._parse_bracket`` matches one regex and names a refusal by where
the match stopped; ``oracles.parse_bracket_loop`` walks the body one
character at a time. Every body up to four characters over an alphabet of
the characters a bracket atom gives meaning to (and a few it does not) must
give the same atom or the same (type, message).

When a ring closure joins '.'-separated fragments, the SMILES's chain
forest no longer spans the graph and ``parse_smiles`` marks ring bonds on a
breadth-first spanning forest instead; ``oracles.ring_bonds_dfs`` finds the
bridges by depth-first search.
"""

from itertools import chain, product

import numpy as np

import oracles
from mtlmolnet.smiles import SmilesError, _parse_bracket, parse_smiles

BRACKET_ALPHABET = "1 2 C N S e a l h x B H @ + - : s c n o".split()


def outcome(read, body):
    try:
        return read(body, 5)
    except SmilesError as err:
        return type(err).__name__, str(err)


def test_bracket_pattern_matches_character_loop():
    bodies = list(map("".join, chain.from_iterable(product(BRACKET_ALPHABET, repeat=k)
                                                   for k in range(5))))
    assert len(bodies) == sum(20 ** k for k in range(5))
    got = [outcome(_parse_bracket, body) for body in bodies]
    want = [outcome(oracles.parse_bracket_loop, body) for body in bodies]
    mismatched = [(b, g, w) for b, g, w in zip(bodies, got, want) if g != w]
    assert not mismatched, mismatched[:5]


def joined_fragments(rng):
    """A SMILES of 2-4 '.'-separated carbon chains with 1-6 ring closures,
    the first of which joins two fragments. Each atom takes at most two
    closures, so no carbon exceeds valence 4, and no closure repeats a bond."""
    sizes = rng.integers(1, 5, size=int(rng.integers(2, 5)))
    fragment = np.repeat(np.arange(len(sizes)), sizes)
    n = len(fragment)
    chain_bonds = {(x, x + 1) for x in range(n - 1) if fragment[x] == fragment[x + 1]}
    pairs = [(int(rng.choice(sizes[0])), int(rng.integers(sizes[0], n)))]
    for _ in range(int(rng.integers(0, 6))):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        closures = np.bincount(np.ravel(pairs), minlength=n)
        if (a, b) not in chain_bonds and (a, b) not in pairs and max(closures[[a, b]]) < 2:
            pairs.append((a, b))
    labels = [[] for _ in range(n)]
    for k, (a, b) in enumerate(pairs, 1):
        labels[a].append(k)
        labels[b].append(k)
    atoms = ["C" + "".join(map(str, rng.permutation(ks))) for ks in labels]
    return ".".join("".join(atoms[x] for x in np.flatnonzero(fragment == f))
                    for f in range(len(sizes)))


def test_ring_marking_matches_bridge_search_across_fragments():
    rng = np.random.default_rng(16)
    pool = ["C1.C2.C12", "C1CC2.C1C2", "c1cc2.c1cc2", "C1.C2.C3.C123"]
    pool += [joined_fragments(rng) for _ in range(2000)]
    for s in pool:
        g = parse_smiles(s)
        ring, components = oracles.ring_bonds_dfs(g.n_atoms, [(b.a, b.b) for b in g.bonds])
        assert [b.in_ring for b in g.bonds] == ring, s
        assert g.n_components == components, s
        ring_atoms = {x for b in g.bonds if b.in_ring for x in (b.a, b.b)}
        assert [a.in_ring for a in g.atoms] == [x in ring_atoms for x in range(g.n_atoms)], s
