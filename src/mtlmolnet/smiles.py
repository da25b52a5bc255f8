"""SMILES parsing into molecular graphs, and their featurization.

Supported subset: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I and
aromatic b, c, n, o, p, s), bracket atoms of the 118 IUPAC elements (and
aromatic b, c, n, o, p, s, se, as) with isotope, charge and a one-digit
explicit hydrogen count, branches, ring closures (including %nn), '-', '=',
'#', ':' bonds and '.'-separated fragments. Stereo markers (/, \\, @) are
accepted and ignored. Aromaticity is read from lowercase tokens, never
perceived.

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

``parse_codes`` parses a list of SMILES straight into the int64 arrays of
one ``GraphCodes``, as Chemprop's ``BatchMolGraph`` builds a batch's arrays
in one go; that is the one representation of parsed molecules. Its
per-molecule core tokenizes with one compiled regex (as in the SMILES
tokenizer of Schwaller et al., ACS Cent. Sci. 2019) and reads each bracket
atom with a second one, whose parts all are optional so that where a match
stops names the refusal. One marking pass finds the ring bonds: each
non-tree bond marks its path through a spanning forest, the chain forest
that the SMILES itself writes down, or a breadth-first one when a ring
closure joins '.'-separated fragments. It then sums each atom's degree and
valence in one pass over the bonds, which the hydrogen audit and the
conjugation marking read, and appends the molecule's columns to the
list-wide ones. ``fill_features`` builds the one-hot features of all
molecules with one fancy-index assignment per field. A ``MolGraph`` is a
view of one row of the codes: ``parse_smiles`` returns one, and its
``Atom`` and ``Bond`` objects are made only when read. Directed edges are
never stored with the codes: ``_directed_edges`` derives them from bond
ends, for one graph's ``MolGraph.directed_edges`` and for a batch's gather
from a pack alike.
"""

import re
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from .tables import DatasetError

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

# one token per match: a bracket atom, a two-letter organic atom, a %nn ring
# label, or any single character
_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|%[0-9][0-9]|.", re.S)
# atom tokens -> (element, aromatic, hydrogens, charge, bracketed): the
# organic subset, and each bracket atom after its first parse (up to a
# bound), so that a repeated bracket atom costs one lookup
_ATOM_TOKENS = {e: (e, False, 0, 0, False)
                for e in ("B", "C", "N", "O", "P", "S", "F", "I", "Cl", "Br")}
_ATOM_TOKENS.update((e, (e.upper(), True, 0, 0, False)) for e in ("b", "c", "n", "o", "p", "s"))
_MAX_ATOM_TOKENS = 4096
# the 118 IUPAC element symbols, in atomic-number order: the symbol table
# that GraphCodes.element indexes. A bracket atom naming anything else is
# refused
ELEMENTS = tuple("""
    H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn Ga Ge
    As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La Ce Pr Nd Pm
    Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th
    Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og
""".split())
_ELEMENTS = {e: code for code, e in enumerate(ELEMENTS)}  # symbol -> code
# per element code: its one-hot feature slot, ELEMENT_ORDER's index or the
# trailing "other" slot
_FEATURE_SLOT = np.array([ELEMENT_ORDER.index(e) if e in ELEMENT_ORDER else len(ELEMENT_ORDER)
                          for e in ELEMENTS])
# the inside of a bracket atom; every part is optional, so where a match
# stops names the part that is malformed
_BRACKET = re.compile(r"""
    (?P<isotope>[0-9]*)                          # ignored
    (?: (?P<element>[A-Z][a-z]?)                 # "CH" is C with one H
      | (?P<aromatic>se|as|[bcnops]) )?
    @*                                           # chirality, ignored
    (?: H (?P<h>[0-9]?) )?                       # one digit, as OpenSMILES hcount
    (?: (?P<sign>[+-]) (?P<charge>[0-9]+|(?P=sign)*) )?  # "+2" or "++"
    (?P<atom_class>:[0-9]*)?                     # ignored, but needs a number
""", re.X)
# aromatic atoms whose ring participation includes one double bond
_AROMATIC_PI_BOND = {"C", "N", "P"}

# bond symbols -> index into BOND_ORDERS
_BOND_CHAR = {"-": 0, "=": 1, "#": 2, ":": 3, "/": 0, "\\": 0}
_SINGLE, _DOUBLE, _AROMATIC = 0, 1, 3
_UNITS = (1, 2, 3, 1)  # a bond's share of an atom's valence, aromatic counted as one


def _allowed_valences(element, charge):
    base = VALENCES[element]
    if element in ("C", "Si", "H"):
        shift = -abs(charge)  # either charge sign removes a bonding electron pair
    elif element == "B":
        shift = -charge  # borate anions gain a bond, cations lose one
    else:
        shift = charge  # N/O/S/P and halogens: charge adds or removes a bond
    return tuple(max(0, v + shift) for v in base)


# (element, formal charge) -> permitted valences, ascending; an element
# missing here is not audited
_ALLOWED = {(e, q): _allowed_valences(e, q) for e in VALENCES for q in range(-4, 5)}


class SmilesError(DatasetError):
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


@dataclass(slots=True)
class Atom:
    element: str
    formal_charge: int = 0
    explicit_h: int = 0
    aromatic: bool = False
    in_ring: bool = False
    degree: int = 0


@dataclass(slots=True)
class Bond:
    a: int
    b: int
    order: str
    conjugated: bool = False
    in_ring: bool = False


def _span(offsets, row):
    """(start, stop) of row ``row``'s columns under ``offsets``."""
    start, stop = offsets[row:row + 2].tolist()
    return start, stop


@dataclass
class MolGraph:
    """One parsed molecule: a view of row ``row`` of ``codes``, a GraphCodes.

    Its counts and ``directed_edges`` are read from the codes, and its
    ``atoms`` and ``bonds`` are built from them on each read.
    ``atom_features`` and ``bond_features`` stay None until ``featurize``
    fills them; packing a graph reads its codes and sets nothing.
    ``directed_edges`` is an int64 array of shape [2*n_bonds, 4] with
    columns (src_atom, dst_atom, bond_index, reverse_edge_index) in the
    layout of ``_directed_edges``. ``n_components`` is the number of
    connected components, counted by the parser on the bond graph.
    """

    codes: "GraphCodes"
    row: int
    atom_features: np.ndarray = None
    bond_features: np.ndarray = None

    @property
    def n_atoms(self):
        start, stop = _span(self.codes.atom_off, self.row)
        return stop - start

    @property
    def n_bonds(self):
        start, stop = _span(self.codes.bond_off, self.row)
        return stop - start

    @property
    def n_components(self):
        return int(self.codes.components[self.row])

    @property
    def atoms(self):
        start, stop = _span(self.codes.atom_off, self.row)
        element, degree, charge, hydrogens, aromatic, ring = (
            self.codes.atoms[:, start:stop].tolist())
        return list(map(Atom, map(ELEMENTS.__getitem__, element), charge, hydrogens,
                        map(bool, aromatic), map(bool, ring), degree))

    @property
    def bonds(self):
        start, stop = _span(self.codes.bond_off, self.row)
        order, conjugated, ring, a, b = self.codes.bonds[:, start:stop].tolist()
        return list(map(Bond, a, b, map(BOND_ORDERS.__getitem__, order), map(bool, conjugated),
                        map(bool, ring)))

    @property
    def directed_edges(self):
        start, stop = _span(self.codes.bond_off, self.row)
        return _directed_edges(self.codes.ends[:, start:stop]).T


def _parse_bracket(body, offset):
    """Parse the inside of a bracket atom -> (element, aromatic, h, charge)."""
    m = _BRACKET.match(body)
    _, element, aromatic, h, sign, charge, atom_class = m.groups()
    if element is None and aromatic is None:
        i = m.end("isotope")
        if i == len(body):
            raise UnknownAtomToken("bracket atom lacks an element symbol", offset)
        if body[i].islower():
            raise UnknownAtomToken(f"unknown aromatic symbol {body[i]!r}", offset)
        raise UnknownAtomToken(f"bad bracket atom content {body!r}", offset)
    if element is not None and element not in _ELEMENTS:
        raise UnknownAtomToken(f"unknown element symbol {element!r}", offset)
    if atom_class == ":":
        raise UnknownAtomToken(f"bad atom class in {body!r}", offset)
    if m.end() != len(body):
        raise UnknownAtomToken(f"unparsed bracket content {body[m.end():]!r}", offset)
    if sign is None:
        charge = 0
    else:
        charge = int(charge) if charge.isdigit() else len(charge) + 1
        if sign == "-":
            charge = -charge
        if not (-4 <= charge <= 4):
            raise UnknownAtomToken(f"formal charge {charge} out of range", offset)
    if aromatic is not None:
        element = aromatic.capitalize()
    return element, aromatic is not None, 0 if h is None else int(h or 1), charge


def _columns():
    """Empty list-wide columns: per-atom codes, per-bond codes and per
    molecule (atoms, bonds, components), which ``_parse`` appends to."""
    return [[] for _ in range(6)], [[] for _ in range(5)], []


def _codes(atom_cols, bond_cols, sizes):
    """The GraphCodes of filled ``_columns``, each column one array."""
    sizes = np.array(sizes, dtype=np.int64).reshape(-1, 3)
    return GraphCodes(atoms=np.array(atom_cols, dtype=np.int64),
                      bonds=np.array(bond_cols, dtype=np.int64),
                      components=sizes[:, 2], atom_off=_offsets(sizes[:, 0]),
                      bond_off=_offsets(sizes[:, 1]))


def parse_codes(smiles_list, where=None):
    """The GraphCodes of a list of SMILES, one row per molecule.

    A refusal keeps its type and offset, and its message names the SMILES
    and ``where[i]`` (a file row's ``path:line``), else its 1-based position.
    """
    columns = _columns()
    for i, s in enumerate(smiles_list):
        try:
            _parse(s, *columns)
        except SmilesError as err:
            name = f"molecule {i + 1} ({s!r})" if where is None else f"{where[i]}: {s!r}"
            err.args = (f"{name}: {err}",)
            raise
    return _codes(*columns)


def parse_smiles(s):
    """Parse a SMILES string into a MolGraph, the view of its own one-row
    GraphCodes (features not yet populated).

    Raises UnknownAtomToken, UnbalancedParenthesis, UnmatchedRingClosure or
    ValenceViolation, each naming the byte offset of the problem.
    """
    columns = _columns()
    _parse(s, *columns)
    return MolGraph(_codes(*columns), 0)


def _parse(s, atom_cols, bond_cols, sizes):
    """Parse one SMILES and append its atoms, bonds and counts to the
    ``_columns``, which a refusal leaves as they were."""
    if not s:
        raise UnknownAtomToken("empty SMILES", 0)
    if not s.isascii():
        bad = next(i for i, c in enumerate(s) if not c.isascii())
        raise UnknownAtomToken("non-ASCII character", bad)

    # per atom: (element, aromatic, hydrogens, charge, bracketed), offset, and
    # its parent and depth in the forest of chain (non-closure) bonds, -1 and
    # 0 for the first atom of a fragment
    atoms, offsets, parent, depth = [], [], [], []
    bonds = []  # (a, b, BOND_ORDERS index or None when implicit, offset)
    closures = set()  # atom pairs (low, high) of ring-closure bonds
    prev = -1
    pending = None  # BOND_ORDERS index of a bond symbol awaiting its atom
    pending_off = 0
    branch_stack = []
    rings = {}  # number -> (atom index, order-or-None, offset)

    i = 0
    for tok in _TOKEN.findall(s):
        off = i
        i += len(tok)
        atom = _ATOM_TOKENS.get(tok)
        if atom is None:
            if tok[0] == "[" and len(tok) > 1:
                atom = (*_parse_bracket(tok[1:-1], off), True)
                if len(_ATOM_TOKENS) < _MAX_ATOM_TOKENS:
                    _ATOM_TOKENS[tok] = atom
            elif tok.isdigit() or tok[0] == "%":
                if prev < 0:
                    raise UnmatchedRingClosure("ring closure before any atom", off)
                if tok == "%":
                    raise UnmatchedRingClosure("'%' needs two digits", off)
                num = int(tok.lstrip("%"))
                order = pending
                pending = None
                if num not in rings:
                    rings[num] = (prev, order, off)
                    continue
                other, other_order, _ = rings.pop(num)
                if order is not None and other_order is not None and order != other_order:
                    raise UnmatchedRingClosure(
                        f"conflicting bond orders on ring closure {num}", off)
                if other == prev:
                    raise UnmatchedRingClosure("ring closure bonds an atom to itself", off)
                pair = (other, prev) if other < prev else (prev, other)
                if parent[prev] == other or parent[other] == prev or pair in closures:
                    raise UnmatchedRingClosure("duplicate bond between atom pair", off)
                closures.add(pair)
                bonds.append((other, prev, order if order is not None else other_order, off))
                continue
            elif tok == "(":
                if prev < 0:
                    raise UnbalancedParenthesis("branch opened before any atom", off)
                branch_stack.append((prev, off))
                continue
            elif tok == ")":
                if not branch_stack:
                    raise UnbalancedParenthesis("unmatched ')'", off)
                if pending is not None:
                    raise UnknownAtomToken("dangling bond before ')'", pending_off)
                prev = branch_stack.pop()[0]
                continue
            elif tok in _BOND_CHAR:
                if pending is not None:
                    raise UnknownAtomToken("two bond symbols in a row", off)
                pending, pending_off = _BOND_CHAR[tok], off
                continue
            elif tok == ".":
                if pending is not None:
                    raise UnknownAtomToken("bond before fragment separator", pending_off)
                prev = -1
                continue
            elif tok == "[":
                raise UnknownAtomToken("unterminated bracket atom", off)
            else:
                raise UnknownAtomToken(f"unrecognized token {tok!r}", off)

        idx = len(atoms)
        atoms.append(atom)
        offsets.append(off)
        parent.append(prev)
        if prev < 0:
            depth.append(0)
        else:
            depth.append(depth[prev] + 1)
            bonds.append((prev, idx, pending, off))
        pending = None
        prev = idx

    if pending is not None:
        raise UnknownAtomToken("dangling bond at end of input", pending_off)
    if branch_stack:
        raise UnbalancedParenthesis("unclosed '('", branch_stack[-1][1])
    if rings:
        num, (_, _, off) = next(iter(rings.items()))
        raise UnmatchedRingClosure(f"ring closure {num} never closed", off)
    if not atoms:
        raise UnknownAtomToken("no atoms in SMILES", 0)

    n = len(atoms)
    elements, aromatic, hydrogens, charges, bracketed = map(list, zip(*atoms))
    ring, n_components = _ring_bonds(parent, depth, bonds, closures)

    # one pass over the bonds: settle implicit orders, then sum each atom's
    # degree and valence units and note its pi, double, aromatic and ring bonds
    degree, units = [0] * n, [0] * n
    pi_active, has_double, has_aromatic, atom_ring = ([False] * n for _ in range(4))
    orders = []
    for (a, b, order, off), in_ring in zip(bonds, ring):
        if order is None:
            order = _AROMATIC if aromatic[a] and aromatic[b] and in_ring else _SINGLE
        elif order == _AROMATIC and not (aromatic[a] and aromatic[b]):
            raise ValenceViolation("aromatic bond between non-aromatic atoms", off)
        orders.append(order)
        unit = _UNITS[order]
        degree[a] += 1
        degree[b] += 1
        units[a] += unit
        units[b] += unit
        if order:
            pi_active[a] = pi_active[b] = True
            if order == _DOUBLE:
                has_double[a] = has_double[b] = True
            elif order == _AROMATIC:
                has_aromatic[a] = has_aromatic[b] = True
        if in_ring:
            atom_ring[a] = atom_ring[b] = True

    _assign_hydrogens_and_audit(elements, charges, hydrogens, aromatic, bracketed, offsets,
                                units, has_double, has_aromatic)

    # conjugation: every aromatic bond, a double or triple bond next to
    # another pi atom, a single bond between two pi atoms
    bond_a = [bd[0] for bd in bonds]
    bond_b = [bd[1] for bd in bonds]
    pi_neighbors = [0] * n
    for a, b in zip(bond_a, bond_b):
        pi_neighbors[a] += pi_active[b]
        pi_neighbors[b] += pi_active[a]
    conjugated = [
        order == _AROMATIC or (pi_neighbors[a] + pi_neighbors[b] > 2 if order
                               else pi_active[a] and pi_active[b])
        for a, b, order in zip(bond_a, bond_b, orders)
    ]

    for column, values in zip(atom_cols, (map(_ELEMENTS.__getitem__, elements), degree,
                                          charges, hydrogens, aromatic, atom_ring)):
        column.extend(values)
    for column, values in zip(bond_cols, (orders, conjugated, ring, bond_a, bond_b)):
        column.extend(values)
    sizes.append((n, len(bonds), n_components))


def _ring_bonds(parent, depth, bonds, closures):
    """(ring flag per bond, component count) of a parsed graph.

    A bond is in a ring exactly when it is not on the spanning forest or
    lies on the forest path that a non-forest bond closes. When every ring
    closure stays inside its '.'-separated fragment, the chain forest spans
    each fragment and each fragment is one component; otherwise a
    breadth-first spanning forest of the bond graph takes its place.
    """
    if closures and parent.count(-1) > 1:
        fragment = []
        for x, p in enumerate(parent):
            fragment.append(x if p < 0 else fragment[p])
        if any(fragment[a] != fragment[b] for a, b in closures):
            parent, depth, closures = _spanning_forest(len(parent), bonds)
    on_cycle = [False] * len(parent)  # the forest bond from the atom to its parent
    for u, v in closures:
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            on_cycle[u] = True
            u = parent[u]
    ring = [on_cycle[b] if parent[b] == a else on_cycle[a] if parent[a] == b else True
            for a, b, _, _ in bonds]
    return ring, parent.count(-1)


def _spanning_forest(n_atoms, bonds):
    """(parent, depth, non-forest atom pairs) of a breadth-first spanning
    forest of the bond graph; a root's parent is -1."""
    neighbors = [[] for _ in range(n_atoms)]
    for a, b, _, _ in bonds:
        neighbors[a].append(b)
        neighbors[b].append(a)
    parent, depth = [None] * n_atoms, [0] * n_atoms
    for root in range(n_atoms):
        if parent[root] is None:
            parent[root] = -1
            queue = [root]
            for u in queue:
                for w in neighbors[u]:
                    if parent[w] is None:
                        parent[w], depth[w] = u, depth[u] + 1
                        queue.append(w)
    return parent, depth, [(a, b) for a, b, _, _ in bonds if parent[b] != a and parent[a] != b]


def _assign_hydrogens_and_audit(elements, charges, hydrogens, aromatic, bracketed, offsets,
                                units, has_double, has_aromatic):
    """Fill ``hydrogens`` of unbracketed atoms; check bracket atoms' valence."""
    for idx, element in enumerate(elements):
        allowed = _ALLOWED.get((element, charges[idx]))
        unit = units[idx]
        if not bracketed[idx]:
            need = unit
            if aromatic[idx]:
                need += element in _AROMATIC_PI_BOND
                # no room for a ring pi bond: a pyrrole-type n gives its
                # lone pair to the ring, a c(=O) its exocyclic double bond
                if need > allowed[-1] and (element == "N" or has_double[idx]):
                    need = unit
            for v in allowed:
                if v >= need:
                    hydrogens[idx] = v - need
                    break
            else:
                raise ValenceViolation(
                    f"{element} with bond order sum {need} exceeds valence", offsets[idx]
                )
        elif allowed is not None:  # other elements: accept as written
            total = unit + hydrogens[idx]
            if has_aromatic[idx]:
                ok = total in allowed or (total + 1) in allowed
            else:
                ok = total <= allowed[-1]
            if not ok:
                raise ValenceViolation(
                    f"[{element}] total valence {total} not permitted", offsets[idx]
                )


def _directed_edges(ends):
    """[4 x 2M] int64 rows (src atom, dst atom, bond, reverse edge) of the
    directed edges of M bonds with ``ends`` [2 x M].

    This is the one statement of the edge layout, as in Chemprop: bond i
    yields edge 2i, a->b, then edge 2i+1, b->a, so the reverse of edge e is
    e ^ 1.
    """
    edge = np.arange(2 * ends.shape[1])
    edges = np.empty((4, len(edge)), dtype=np.int64)
    edges[:2, 0::2] = ends
    edges[:2, 1::2] = ends[::-1]
    edges[2] = edge >> 1
    edges[3] = edge ^ 1
    return edges


def _code_row(matrix, i):
    return property(lambda codes: getattr(codes, matrix)[i])


@dataclass(eq=False)
class GraphCodes:
    """Parsed molecules as int64 codes, a column per atom and per bond.

    Atoms and bonds follow the molecules' order, then each molecule's own;
    molecule i owns atom columns ``atom_off[i]:atom_off[i+1]`` and bond
    columns ``bond_off[i]:bond_off[i+1]``. The rows of ``atoms`` and
    ``bonds`` read as named fields (``codes.element``, ``codes.ends``).
    Codes compare by identity.
    """

    # [6 x A]: element (index into ELEMENTS), degree, charge, hydrogens,
    # aromatic 0/1, ring 0/1
    atoms: np.ndarray
    # [5 x M]: order (index into BOND_ORDERS), conjugated 0/1, ring 0/1, and
    # the molecule-local atom indices of the ends a and b
    bonds: np.ndarray
    components: np.ndarray  # [N]
    atom_off: np.ndarray  # [N + 1]
    bond_off: np.ndarray  # [N + 1]

    element, degree, charge, hydrogens, aromatic, atom_ring = (
        _code_row("atoms", i) for i in range(6))
    order, conjugated, bond_ring = (_code_row("bonds", i) for i in range(3))
    ends = property(lambda codes: codes.bonds[3:])  # [2 x M]

    def spans(self, rows):
        """(atom columns, bond columns, atoms per row, bonds per row) of
        the molecules at ``rows``: where their atoms and bonds lie, row
        after row."""
        n_atoms = self.atom_off[rows + 1] - self.atom_off[rows]
        n_bonds = self.bond_off[rows + 1] - self.bond_off[rows]
        return (_runs(self.atom_off[rows], n_atoms), _runs(self.bond_off[rows], n_bonds),
                n_atoms, n_bonds)


def _runs(starts, lengths):
    """The ranges ``start:start+length``, one after the other."""
    first = np.cumsum(lengths) - lengths  # where each range begins in the result
    return np.repeat(starts - first, lengths) + np.arange(lengths.sum())


def _offsets(counts):
    """[N + 1] offsets of N consecutive runs of ``counts`` items."""
    return np.concatenate([[0], np.cumsum(counts)])


def graph_codes(graphs):
    """The GraphCodes of a non-empty list of MolGraph views, a row per
    graph: the rows of each run of graphs that view one GraphCodes are
    gathered from it at once, and the runs are joined in list order."""
    parts = []
    for codes, run in groupby(graphs, key=attrgetter("codes")):
        rows = np.array([g.row for g in run])
        atom_idx, bond_idx, n_atoms, n_bonds = codes.spans(rows)
        parts.append((codes.atoms[:, atom_idx], codes.bonds[:, bond_idx], codes.components[rows],
                      n_atoms, n_bonds))
    atoms, bonds, components, n_atoms, n_bonds = (np.concatenate(p, axis=-1) for p in zip(*parts))
    return GraphCodes(atoms=atoms, bonds=bonds, components=components,
                      atom_off=_offsets(n_atoms), bond_off=_offsets(n_bonds))


def fill_features(codes):
    """(atom features [A x 33], bond features [M x 6]) of the molecules of
    ``codes``, one fancy-index assignment per one-hot field.

    Atom layout: element one-hot incl. other (14), degree 0-5 (6), formal
    charge -2..+2 incl. other (6), explicit hydrogens 0-4 clamped (5),
    aromatic flag (1), ring flag (1). Bond layout: order one-hot (4),
    conjugated (1), ring flag (1).
    """
    rows = np.arange(len(codes.element))
    af = np.zeros((len(rows), ATOM_FEATURE_DIM))
    af[rows, _FEATURE_SLOT[codes.element]] = 1.0
    af[rows, 14 + np.minimum(codes.degree, 5)] = 1.0
    charge = codes.charge
    af[rows, 20 + np.where(np.abs(charge) <= 2, charge + 2, 5)] = 1.0
    af[rows, 26 + np.minimum(codes.hydrogens, 4)] = 1.0
    af[:, 31] = codes.aromatic
    af[:, 32] = codes.atom_ring

    bf = np.zeros((len(codes.order), BOND_FEATURE_DIM))
    bf[np.arange(len(bf)), codes.order] = 1.0
    bf[:, 4] = codes.conjugated
    bf[:, 5] = codes.bond_ring
    return af, bf


def featurize(g):
    """Populate ``g.atom_features`` [n x 33] and ``g.bond_features`` [m x 6]
    in place with ``fill_features`` of its row's codes; returns ``g``."""
    g.atom_features, g.bond_features = fill_features(graph_codes([g]))
    return g
