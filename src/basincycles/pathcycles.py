"""Path cycles: sub-level components of the energy landscape.

A nonempty set is a path cycle when it is a singleton, or when it is
connected and its internal maximum lies strictly below the floor of its
exterior boundary.  Every connected component of a sub-level set
``{x : H(x) <= c}`` is a cycle, and any two cycles are nested or disjoint,
so the full family forms a tree over the state space: the merge tree of the
landscape (Becker & Karplus, J. Chem. Phys. 106 (1997) 1495; Carr,
Snoeyink & Axen, Comput. Geom. 24 (2003) 75).

``enumerate_path_cycles`` builds that tree in one union-find sweep over the
distinct energies in ascending order, each level an int count of ``1/scale``
units, on the int state ids of ``Landscape.numbering``.  All states of one
energy join before any component is judged, which keeps flat plateaus from
emitting spurious sub-plateau sets.  Each state enters as a leaf; each
component that grows at a level becomes a node over the top cycles it
joined, and that level is the boundary floor of every non-singleton child.
A node is an int record, never a set: leaf ``i`` is state ``i``, formed
nodes are ``n, n + 1, ...``, and ``CycleTree`` keeps lists by node id:
``low``, ``high``, ``floor`` (units), ``parent``, ``children`` and ``lo, hi``,
a slice of one depth-first leaf order, so all members take O(n).
``CycleNode``, its ``members`` and ``ground``, and the ``node`` index are
views built on first read.  ``node()`` and ``member_sets()`` serve the API and
the tests; ``verify`` no longer reads them, since it resolves each class to a
node id on the int records.
"""

from __future__ import annotations

import math
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .energy import Energy, from_units
from .errors import NotACycle
from .landscape import HeightTexts, Landscape, Rendered, StateSet, parsed


def set_key(members: Iterable[str]) -> tuple[str, ...]:
    """Canonical sort key for a state set."""
    return tuple(sorted(members))


class CycleNode:
    """A view of one cycle of a ``CycleTree``, its heights in int units of
    ``1/scale``: the internal minimum ``low`` and maximum ``high``, and the
    boundary ``floor`` (``math.inf`` for the root).  ``depth``,
    ``floor - low``, is the barrier seen on exit (INFINITY for the root, and
    possibly <= 0 for a singleton that is not a local minimum);
    ``resistance`` is ``high - low``.  The cycle is ``nontrivial`` when
    ``high < floor``.  ``members`` and ``ground`` are built when read."""

    def __init__(self, tree: "CycleTree", node: int):
        self._tree, self._id, self.scale = tree, node, tree.scale
        self.low, self.high, self.floor = tree.low[node], tree.high[node], tree.floor[node]
        self.parent, self.children = None, []

    @property
    def members(self) -> StateSet:
        tree, v = self._tree, self._id
        return frozenset(map(tree.names.__getitem__, tree.leaves[tree.lo[v] : tree.hi[v]]))

    @property
    def ground(self) -> StateSet:
        return frozenset(x for x in self.members if self._tree.landscape.units(x) == self.low)

    @property
    def depth(self) -> Energy:
        return from_units(self.floor - self.low, self.scale)

    @property
    def resistance(self) -> Energy:
        return Energy(self.high - self.low, self.scale)

    @property
    def nontrivial(self) -> bool:
        return self.high < self.floor

    def __repr__(self) -> str:
        return f"CycleNode({{{','.join(sorted(self.members))}}})"


class CycleTree:
    """All path cycles of a landscape, nested-or-disjoint, rooted at the whole
    space: the module docstring's int records, and ``nodes``, views in ``order``."""

    def __init__(self, landscape, low, high, floor, parent, children, lo, hi, leaves, order):
        self.landscape, self.names, self.scale = landscape, landscape.numbering()[0], landscape.scale
        self.low, self.high, self.floor, self.parent, self.children = low, high, floor, parent, children
        self.lo, self.hi, self.leaves, self.order = lo, hi, leaves, order
        self._nodes = self._by_members = None  # built on first read

    @property
    def nodes(self) -> tuple[CycleNode, ...]:
        if self._nodes is None:
            made = [CycleNode(self, v) for v in range(len(self))]
            for v, kids in self.children.items():
                made[v].children = [made[c] for c in kids]
                for c in kids:
                    made[c].parent = made[v]
            self._nodes = tuple(map(made.__getitem__, self.order))
        return self._nodes

    @property
    def root(self) -> CycleNode:
        return self.nodes[-1]

    def _index(self) -> dict:
        if self._by_members is None:
            self._by_members = {node.members: node for node in self.nodes}
        return self._by_members

    def node(self, members: Iterable[str]) -> CycleNode:
        got = frozenset(members)
        try:
            return self._index()[got]
        except KeyError:
            raise NotACycle(f"{sorted(got)} is not a cycle of this landscape") from None

    def member_sets(self) -> set[StateSet]:
        return set(self._index())

    def __len__(self) -> int:
        return len(self.low)


def enumerate_path_cycles(landscape: Landscape) -> CycleTree:
    """Every path cycle of the landscape, organized as a nested tree, by the
    sweep of the module docstring.  Each state enters as a leaf whose floor
    is its lowest neighbour; the last node formed is the whole space."""
    _, _, units, adjacency = landscape.numbering()
    n = len(units)
    by_level: dict[int, list[int]] = {}
    for i, u in enumerate(units):
        by_level.setdefault(u, []).append(i)
    low, high, parent = list(units), list(units), [None] * n
    floor = [min([units[j] for j in nbrs], default=math.inf) for nbrs in adjacency]
    size, first = [1] * n, list(range(n))  # smallest ids order disjoint sets as sorted members
    children: dict[int, list[int]] = {}
    uf = list(range(n))  # union-find over state ids
    top: dict[int, int] = {}  # union-find root -> its component's largest cycle
    active = [False] * n

    def find(x: int) -> int:  # with path halving
        while uf[x] != x:
            uf[x] = x = uf[uf[x]]
        return x

    for level in sorted(by_level):
        fresh = by_level[level]
        # the level's states and the components below the level they touch
        joined = set(fresh).union(find(j) for s in fresh for j in adjacency[s] if active[j])
        for s in fresh:
            active[s] = True
        for s in fresh:  # all states of this energy join before any component is judged
            for j in filter(active.__getitem__, adjacency[s]):
                uf[find(j)] = find(s)
        groups: dict[int, list[int]] = {}
        for old in joined:
            groups.setdefault(find(old), []).append(top.pop(old, old))  # a fresh state is its leaf
        for root, group in groups.items():
            top[root] = group[0]
            if len(group) > 1:  # a node formed at the level, the floor of its non-singleton children
                v = top[root] = len(low)
                low.append(min(low[c] for c in group))
                high.append(level)
                floor.append(math.inf)
                parent.append(None)
                size.append(sum(size[c] for c in group))
                first.append(min(first[c] for c in group))
                for c in group:
                    parent[c] = v
                    if c >= n:
                        floor[c] = level
                children[v] = sorted(group, key=first.__getitem__)

    lo, hi, leaves = leaf_layout(size, children, n)
    order = sorted(range(len(low)), key=lambda v: (size[v], first[v]))
    return CycleTree(landscape, low, high, floor, parent, children, lo, hi, leaves, order)


def leaf_layout(size: list, children: dict, n: int) -> tuple[list, list, list]:
    """Lay the leaves ``0..n-1`` of a hierarchy out depth first.  The nodes
    ``n`` and up are formed ones, each a larger id than its children, the
    last the root; ``size`` counts each node's leaves.  Returns ``lo``,
    ``hi`` and ``leaves``: node v's leaves are ``leaves[lo[v]:hi[v]]``."""
    lo = [0] * len(size)
    for v in range(len(size) - 1, n - 1, -1):  # each parent before its children
        at = lo[v]
        for c in children[v]:
            lo[c], at = at, at + size[c]
    leaves = sorted(range(n), key=lo.__getitem__)
    return lo, [a + k for a, k in zip(lo, size)], leaves


def sorted_slices(leaves: list, lo: list, hi: list, order: Iterable[int]):
    """Each node of ``order`` with its sorted leaf ids.  ``order`` puts
    every node after its children, whose slices lie end to end in the
    node's, so each in-place sort on a copy of ``leaves`` merges sorted
    runs."""
    work = list(leaves)
    for v in order:
        work[lo[v] : hi[v]] = ids = sorted(work[lo[v] : hi[v]])
        yield v, ids


# -- export --------------------------------------------------------------------

# one node entry at depth 0; ``node_entries`` moves it to its own depth
_NODE = """{
  "members": [
    %s
  ],
  "gamma": %s,
  "gamma_tilde": %s,
  "ground": [
    %s
  ],
  "parent_index": %s
}"""


def node_entries(tree: CycleTree, newline: str) -> Iterator[str]:
    """Each node's entry as JSON text in tree order, laid out at
    ``newline``'s depth: its members and ground states in name order, its
    depth ``gamma`` and resistance ``gamma_tilde``, and its parent's position
    in tree order (null for the root).  Each name is encoded once, each
    height text built once per distinct value.  A node's ground is its
    children's grounds at its own ``low``; ``order`` renders the children
    first, and each child's list is dropped when its parent takes it."""
    template, item = _NODE.replace("\n", newline), "," + newline + "    "
    # a list's __getitem__ maps about twice as fast as a tuple's
    name = list(map(encode_basestring_ascii, tree.names)).__getitem__
    text, children = HeightTexts(tree.scale), tree.children
    position = {v: k for k, v in enumerate(tree.order)}
    grounds: dict[int, list[int]] = {}  # rendered node -> its ground ids, until its parent's turn
    for v, ids in sorted_slices(tree.leaves, tree.lo, tree.hi, tree.order):
        low = tree.low[v]
        ground = [] if v in children else [v]  # a leaf is its own state
        for c in children.get(v, ()):
            part = grounds.pop(c)
            if tree.low[c] == low:
                ground += part
        ground.sort()
        grounds[v] = ground
        yield template % (
            item.join(map(name, ids)),
            text[tree.floor[v] - low],
            text[tree.high[v] - low],
            item.join(map(name, ground)),
            position.get(tree.parent[v], "null"),
        )


def tree_document(tree: CycleTree) -> dict:
    """The ``cycle-tree`` document's body, its nodes a ``Rendered`` array."""
    return {"nodes": Rendered(partial(node_entries, tree))}


def tree_to_dict(tree: CycleTree) -> dict:
    """``tree_document`` as plain lists and dicts, parsed from the entries."""
    return parsed(tree_document(tree))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def tree_to_dot(tree: CycleTree) -> Iterator[str]:
    """Graph-description text, line by line: one node per cycle, edges
    parent -> child."""
    name, scale = tree.names.__getitem__, tree.scale
    position = {v: k for k, v in enumerate(tree.order)}
    yield "digraph cycles {\n"
    yield '  node [shape=box, fontname="monospace"];\n'
    for k, (v, ids) in enumerate(sorted_slices(tree.leaves, tree.lo, tree.hi, tree.order)):
        low = tree.low[v]
        label = _dot_escape("{" + ",".join(map(name, ids)) + "}")
        gamma = from_units(tree.floor[v] - low, scale)
        yield f'  n{k} [label="{label}\\nΓ={gamma}, Γ̃={Energy(tree.high[v] - low, scale)}"];\n'
    for k, v in enumerate(tree.order):
        for child in tree.children.get(v, ()):
            yield f"  n{k} -> n{position[child]};\n"
    yield "}\n"
