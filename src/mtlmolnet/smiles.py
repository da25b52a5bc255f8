"""SMILES parsing into featurized molecular graphs.

Supported subset: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I and
aromatic b, c, n, o, p, s), bracket atoms with isotope, charge and explicit
hydrogen count, branches, ring closures (including %nn), '-', '=', '#', ':'
bonds and '.'-separated fragments. Stereo markers (/, \\, @) are accepted
and ignored. Aromaticity is read from lowercase tokens, never perceived.

Implicit hydrogens on unbracketed atoms are filled from default valences
(C:4, N:3, O:2, halogens:1, S:2/4/6, P:3/5, B:3, Si:4). Bracket atoms carry
exactly the hydrogens they declare. For unbracketed aromatic atoms the
hydrogen fill counts ring bonds as single plus one extra bond for c/n/p,
matching their share of the delocalized system; o, s and b contribute a
lone pair (or empty orbital) instead, so they get no extra bond. Where the
extra bond would exceed the valence, an n with three bonds (as in
N-methylimidazole) gives its lone pair instead and a c carrying an
exocyclic double bond (as in caffeine's c(=O)) contributes that bond; an
n(=O) stays a valence violation. The
post-parse valence audit allows the same one-bond slack on atoms with
aromatic bonds so that five-membered heteroaromatics and fused-ring
junction atoms pass.

Parse errors carry the byte offset of the offending token.
"""

from dataclasses import dataclass, field

import numpy as np

BOND_ORDERS = ("single", "double", "triple", "aromatic")

# default valence sets for implicit-H fill and the audit
VALENCES = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "F": (1,),
    "Si": (4,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "Cl": (1,),
    "Br": (1,),
    "Se": (2, 4, 6),
    "I": (1,),
}

# featurization element order; anything else lands in the trailing "other" slot
ELEMENT_ORDER = ("H", "B", "C", "N", "O", "F", "Si", "P", "S", "Cl", "Br", "I", "Se")

ATOM_FEATURE_DIM = 33
BOND_FEATURE_DIM = 6

_ORGANIC_TWO = ("Cl", "Br")
_ORGANIC_ONE = {"B", "C", "N", "O", "P", "S", "F", "I"}
_AROMATIC_ORGANIC = {"b", "c", "n", "o", "p", "s"}
# aromatic atoms whose ring participation includes one double bond
_AROMATIC_PI_BOND = {"C", "N", "P"}

_BOND_CHAR = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
              "/": "single", "\\": "single"}


class SmilesError(ValueError):
    """Base parse error; ``offset`` is the byte position in the input."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnmatchedRingClosure(SmilesError):
    pass


class UnbalancedParenthesis(SmilesError):
    pass


class UnknownAtomToken(SmilesError):
    pass


class ValenceViolation(SmilesError):
    pass


@dataclass
class Atom:
    element: str
    formal_charge: int = 0
    explicit_h: int = 0
    aromatic: bool = False
    in_ring: bool = False
    degree: int = 0


@dataclass
class Bond:
    a: int
    b: int
    order: str
    conjugated: bool = False
    in_ring: bool = False


@dataclass
class MolGraph:
    """Molecular graph with optional feature matrices.

    ``directed_edges`` is an int64 array of shape [2*n_bonds, 4] with
    columns (src_atom, dst_atom, bond_index, reverse_edge_index); bond i
    yields edges 2i (a->b) and 2i+1 (b->a).
    """

    atoms: list
    bonds: list
    directed_edges: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 4), dtype=np.int64)
    )
    atom_features: np.ndarray = None
    bond_features: np.ndarray = None

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def n_bonds(self):
        return len(self.bonds)


def _parse_bracket(body, offset):
    """Parse the inside of a bracket atom -> (element, aromatic, h, charge)."""
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
        if i < n and body[i].islower() and body[i] != "h":
            element += body[i]
            i += 1
    elif body[i].islower():
        two = body[i : i + 2]
        if two == "se" or two == "as":
            element = two.capitalize()
            i += 2
        elif body[i] in _AROMATIC_ORGANIC:
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
        digits = ""
        while i < n and body[i].isdigit():
            digits += body[i]
            i += 1
        explicit_h = int(digits) if digits else 1
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


def parse_smiles(s):
    """Parse a SMILES string into a MolGraph (features not yet populated).

    Raises UnknownAtomToken, UnbalancedParenthesis, UnmatchedRingClosure or
    ValenceViolation, each naming the byte offset of the problem.
    """
    if not s:
        raise UnknownAtomToken("empty SMILES", 0)
    if not s.isascii():
        bad = next(i for i, c in enumerate(s) if not c.isascii())
        raise UnknownAtomToken("non-ASCII character", bad)

    atoms = []
    atom_offsets = []
    bracketed = []
    # bonds as [a, b, order-or-None, offset], and their unordered atom pairs
    raw_bonds = []
    bonded = set()
    prev = None
    pending = None  # (order, offset)
    branch_stack = []
    rings = {}  # number -> (atom index, order-or-None, offset)

    def new_bond(a, b, order, offset):
        if a == b:
            raise UnmatchedRingClosure("ring closure bonds an atom to itself", offset)
        pair = (a, b) if a < b else (b, a)
        if pair in bonded:
            raise UnmatchedRingClosure("duplicate bond between atom pair", offset)
        bonded.add(pair)
        raw_bonds.append([a, b, order, offset])

    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c == "(":
            if prev is None:
                raise UnbalancedParenthesis("branch opened before any atom", i)
            branch_stack.append((prev, i))
            i += 1
            continue
        if c == ")":
            if not branch_stack:
                raise UnbalancedParenthesis("unmatched ')'", i)
            if pending is not None:
                raise UnknownAtomToken("dangling bond before ')'", pending[1])
            prev = branch_stack.pop()[0]
            i += 1
            continue
        if c in _BOND_CHAR:
            if pending is not None:
                raise UnknownAtomToken("two bond symbols in a row", i)
            pending = (_BOND_CHAR[c], i)
            i += 1
            continue
        if c == ".":
            if pending is not None:
                raise UnknownAtomToken("bond before fragment separator", pending[1])
            prev = None
            i += 1
            continue
        if c.isdigit() or c == "%":
            if prev is None:
                raise UnmatchedRingClosure("ring closure before any atom", i)
            if c == "%":
                if i + 2 >= n or not (s[i + 1].isdigit() and s[i + 2].isdigit()):
                    raise UnmatchedRingClosure("'%' needs two digits", i)
                num = int(s[i + 1 : i + 3])
                tok_len = 3
            else:
                num = int(c)
                tok_len = 1
            order = pending[0] if pending is not None else None
            pending = None
            if num in rings:
                other, other_order, _ = rings.pop(num)
                if order is not None and other_order is not None and order != other_order:
                    raise UnmatchedRingClosure(
                        f"conflicting bond orders on ring closure {num}", i
                    )
                new_bond(other, prev, order if order is not None else other_order, i)
            else:
                rings[num] = (prev, order, i)
            i += tok_len
            continue

        # atom tokens
        if c == "[":
            end = s.find("]", i)
            if end < 0:
                raise UnknownAtomToken("unterminated bracket atom", i)
            element, aromatic, h, charge = _parse_bracket(s[i + 1 : end], i)
            tok_len = end - i + 1
            from_bracket = True
        elif s[i : i + 2] in _ORGANIC_TWO:
            element, aromatic, h, charge = s[i : i + 2], False, 0, 0
            tok_len = 2
            from_bracket = False
        elif c in _ORGANIC_ONE:
            element, aromatic, h, charge = c, False, 0, 0
            tok_len = 1
            from_bracket = False
        elif c in _AROMATIC_ORGANIC:
            element, aromatic, h, charge = c.upper(), True, 0, 0
            tok_len = 1
            from_bracket = False
        else:
            raise UnknownAtomToken(f"unrecognized token {c!r}", i)

        idx = len(atoms)
        atoms.append(Atom(element=element, formal_charge=charge,
                          explicit_h=h, aromatic=aromatic))
        atom_offsets.append(i)
        bracketed.append(from_bracket)
        if prev is not None:
            order = pending[0] if pending is not None else None
            new_bond(prev, idx, order, i)
        pending = None
        prev = idx
        i += tok_len

    if pending is not None:
        raise UnknownAtomToken("dangling bond at end of input", pending[1])
    if branch_stack:
        raise UnbalancedParenthesis("unclosed '('", branch_stack[-1][1])
    if rings:
        num, (_, _, off) = next(iter(rings.items()))
        raise UnmatchedRingClosure(f"ring closure {num} never closed", off)
    if not atoms:
        raise UnknownAtomToken("no atoms in SMILES", 0)

    ring_bond = _find_ring_bonds(len(atoms), raw_bonds)

    bonds = []
    for k, (a, b, order, offset) in enumerate(raw_bonds):
        if order is None:
            if atoms[a].aromatic and atoms[b].aromatic and ring_bond[k]:
                order = "aromatic"
            else:
                order = "single"
        if order == "aromatic" and not (atoms[a].aromatic and atoms[b].aromatic):
            raise ValenceViolation("aromatic bond between non-aromatic atoms", offset)
        bonds.append(Bond(a=a, b=b, order=order, in_ring=bool(ring_bond[k])))

    _assign_hydrogens_and_audit(atoms, bonds, bracketed, atom_offsets)
    _mark_rings_and_conjugation(atoms, bonds)

    graph = MolGraph(atoms=atoms, bonds=bonds, directed_edges=_directed_edges(bonds))
    return graph


def _find_ring_bonds(n_atoms, raw_bonds):
    """Mark each bond as ring (True) or bridge (False) via iterative DFS."""
    adj = [[] for _ in range(n_atoms)]
    for k, (a, b, _, _) in enumerate(raw_bonds):
        adj[a].append((b, k))
        adj[b].append((a, k))

    ring = [False] * len(raw_bonds)
    disc = [-1] * n_atoms
    low = [0] * n_atoms
    timer = 0
    for root in range(n_atoms):
        if disc[root] != -1:
            continue
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
    return ring


def _order_value(order):
    return {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}[order]


def _allowed_valences(atom):
    base = VALENCES.get(atom.element)
    if base is None:
        return None  # unsupported element: no audit
    q = atom.formal_charge
    if atom.element in ("C", "Si", "H"):
        shift = -abs(q)  # either charge sign removes a bonding electron pair
    elif atom.element == "B":
        shift = -q  # borate anions gain a bond, cations lose one
    else:
        shift = q  # N/O/S/P and halogens: charge adds or removes a bond
    return tuple(max(0, v + shift) for v in base)


def _assign_hydrogens_and_audit(atoms, bonds, bracketed, atom_offsets):
    order_sum = [0.0] * len(atoms)
    unit_sum = [0] * len(atoms)  # aromatic counted as one
    has_aromatic = [False] * len(atoms)
    has_double = [False] * len(atoms)
    for b in bonds:
        val = _order_value(b.order)
        for end in (b.a, b.b):
            order_sum[end] += val
            unit_sum[end] += 1 if b.order == "aromatic" else int(val)
            if b.order == "aromatic":
                has_aromatic[end] = True
            elif b.order == "double":
                has_double[end] = True

    for idx, atom in enumerate(atoms):
        allowed = _allowed_valences(atom)
        off = atom_offsets[idx]
        if not bracketed[idx]:
            if allowed is None:
                raise UnknownAtomToken(f"element {atom.element} not supported", off)
            if atom.aromatic:
                need = unit_sum[idx] + (1 if atom.element in _AROMATIC_PI_BOND else 0)
                # no room for a ring pi bond: a pyrrole-type n gives its
                # lone pair to the ring, a c(=O) its exocyclic double bond
                if need > max(allowed) and (atom.element == "N" or has_double[idx]):
                    need = unit_sum[idx]
            else:
                need = unit_sum[idx]
            fills = [v for v in allowed if v >= need]
            if not fills:
                raise ValenceViolation(
                    f"{atom.element} with bond order sum {need} exceeds valence", off
                )
            atom.explicit_h = fills[0] - need
        else:
            if allowed is None:
                continue  # 'other' elements: accept as written
            total = unit_sum[idx] + atom.explicit_h
            if has_aromatic[idx]:
                ok = total in allowed or (total + 1) in allowed
            else:
                ok = total <= max(allowed)
            if not ok:
                raise ValenceViolation(
                    f"[{atom.element}] total valence {total} not permitted", off
                )


def _mark_rings_and_conjugation(atoms, bonds):
    pi_active = [False] * len(atoms)
    neighbors = [[] for _ in atoms]
    for b in bonds:
        neighbors[b.a].append(b.b)
        neighbors[b.b].append(b.a)
        if b.order in ("double", "triple", "aromatic"):
            pi_active[b.a] = True
            pi_active[b.b] = True
        if b.in_ring:
            atoms[b.a].in_ring = True
            atoms[b.b].in_ring = True

    for b in bonds:
        if b.order == "aromatic":
            b.conjugated = True
        elif b.order in ("double", "triple"):
            flank = [k for k in neighbors[b.a] + neighbors[b.b] if k not in (b.a, b.b)]
            b.conjugated = any(pi_active[k] for k in flank)
        else:
            b.conjugated = pi_active[b.a] and pi_active[b.b]

    for idx, atom in enumerate(atoms):
        atom.degree = len(neighbors[idx])


def _directed_edges(bonds):
    edges = np.zeros((2 * len(bonds), 4), dtype=np.int64)
    for i, b in enumerate(bonds):
        edges[2 * i] = (b.a, b.b, i, 2 * i + 1)
        edges[2 * i + 1] = (b.b, b.a, i, 2 * i)
    return edges


def _one_hot(value, choices):
    # trailing slot is the catch-all
    vec = [0.0] * (len(choices) + 1)
    try:
        vec[choices.index(value)] = 1.0
    except ValueError:
        vec[-1] = 1.0
    return vec


def featurize(g):
    """Populate atom_features [n x 33] and bond_features [m x 6] in place.

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

    g.atom_features = af
    g.bond_features = bf
    return g
