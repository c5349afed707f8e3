"""Path cycles: sub-level components of the energy landscape.

A nonempty set is a path cycle when it is a singleton, or when it is
connected and its internal maximum lies strictly below the floor of its
exterior boundary.  Every connected component of a sub-level set
``{x : H(x) <= c}`` is a cycle, and any two cycles are nested or disjoint,
so the full family forms a tree over the state space: the merge tree of the
landscape (Becker & Karplus, J. Chem. Phys. 106 (1997) 1495).

``enumerate_path_cycles`` builds that tree in one union-find sweep over the
distinct energies in ascending order, each level an int count of ``1/scale``
units.  All states of one energy join before any component is judged, which
keeps flat plateaus from emitting spurious sub-plateau sets.  Each state
enters as a leaf; each component that grows at a level becomes a node whose
children are the top cycles it joined, and that level is the boundary floor
of every non-singleton child.  Containment and heights are thus recorded as
the tree forms, never rediscovered from sets; each node holds ``low``,
``high`` and ``floor`` as int units and builds ``Energy`` only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .energy import Energy, from_units
from .errors import LevelBelowStart, NotACycle
from .landscape import Landscape, StateSet, exterior_boundary, is_connected_subset, reach


def set_key(members: Iterable[str]) -> tuple[str, ...]:
    """Canonical sort key for a state set."""
    return tuple(sorted(members))


def _floor_units(landscape: Landscape, members: Iterable[str]):
    """Minimal units on the exterior boundary; ``math.inf`` for the whole space."""
    return min(map(landscape.units, exterior_boundary(landscape, members)), default=math.inf)


def boundary_floor(landscape: Landscape, members: StateSet) -> Energy:
    """Minimal energy on the exterior boundary; INFINITY for the whole space."""
    return from_units(_floor_units(landscape, members), landscape.scale)


def is_path_cycle(landscape: Landscape, members: Iterable[str]) -> bool:
    """Singleton, or connected with max energy strictly below the boundary floor."""
    inside = landscape.subset(members)
    if len(inside) == 1:
        return True
    if not is_connected_subset(landscape, inside):
        return False
    return max(map(landscape.units, inside)) < _floor_units(landscape, inside)


def sublevel_component(landscape: Landscape, start: str, cutoff) -> StateSet:
    """States reachable from ``start`` along paths at energy <= ``cutoff``.

    Always a cycle (possibly the singleton).  Cutoffs between two landscape
    energy values behave like the largest value not above them.
    """
    level = landscape.energy_value(cutoff)
    if level.units < landscape.units(start):
        raise LevelBelowStart(
            f"cutoff {level} below the energy of {start!r} ({landscape.energy(start)})"
        )

    def below(x):
        return [y for y in landscape.neighbors(x) if landscape.units(y) <= level.units]

    return frozenset(reach([start], below))


@dataclass(eq=False)
class CycleNode:
    """One cycle of the tree with its heights in int units of ``1/scale``:
    the internal minimum ``low`` and maximum ``high``, and the boundary
    ``floor`` (``math.inf`` for the root).  ``depth``, ``floor - low``, is
    the barrier seen on exit (INFINITY for the root, and possibly <= 0 for a
    singleton that is not a local minimum); ``resistance`` is ``high - low``.
    The cycle is ``nontrivial`` when ``high < floor``.
    """

    members: StateSet
    low: int
    high: int
    floor: int | float
    scale: int
    ground: StateSet
    parent: Optional["CycleNode"] = None
    children: list["CycleNode"] = field(default_factory=list)

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
    """All path cycles of a landscape, nested-or-disjoint, rooted at the
    whole space.  ``keys`` maps each node to its sorted member tuple."""

    def __init__(self, root: CycleNode, nodes: tuple[CycleNode, ...], keys: dict):
        self.root = root
        self.nodes = nodes
        self.keys = keys
        self._by_members = {node.members: node for node in nodes}

    def node(self, members: Iterable[str]) -> CycleNode:
        got = frozenset(members)
        try:
            return self._by_members[got]
        except KeyError:
            raise NotACycle(f"{sorted(got)} is not a cycle of this landscape") from None

    def member_sets(self) -> set[StateSet]:
        return set(self._by_members)

    def __len__(self) -> int:
        return len(self.nodes)


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}
        self.size = dict.fromkeys(self.parent, 1)

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def _merge(level: int, children: list[CycleNode], scale: int) -> CycleNode:
    """The component formed at ``level`` (int units) from the top cycles it
    joins; the level is the boundary floor of every non-singleton child."""
    low = min(c.low for c in children)
    members = frozenset().union(*(c.members for c in children))
    ground = frozenset().union(*(c.ground for c in children if c.low == low))
    node = CycleNode(members, low, level, math.inf, scale, ground, children=children)
    for child in children:
        child.parent = node
        if len(child.members) > 1:
            child.floor = level
    return node


def enumerate_path_cycles(landscape: Landscape) -> CycleTree:
    """Every path cycle of the landscape, organized as a nested tree.

    One union-find sweep over the distinct energies in ascending order, each
    level an int count of units.  Each state enters as a leaf whose floor is
    its lowest neighbour; every component that grows at a level becomes a
    node over the top cycles it joined.  The last node standing is the whole
    space.
    """
    scale = landscape.scale
    by_level: dict[int, list[str]] = {}
    for s in landscape.states:
        by_level.setdefault(landscape.units(s), []).append(s)
    uf = _UnionFind(landscape.states)
    active: set[str] = set()
    top: dict[str, CycleNode] = {}  # union-find root -> largest cycle of its component
    nodes: list[CycleNode] = []

    for level in sorted(by_level):
        fresh = by_level[level]
        # the level's states and the components below the level they touch
        joined = {uf.find(n) for s in fresh for n in landscape.neighbors(s) if n in active}
        joined.update(fresh)
        active.update(fresh)
        for s in fresh:
            floor = min(map(landscape.units, landscape.neighbors(s)), default=math.inf)
            leaf = frozenset((s,))
            top[s] = CycleNode(leaf, level, level, floor, scale, leaf)
            nodes.append(top[s])
            # all states of this energy join before any component is judged
            for nbr in landscape.neighbors(s):
                if nbr in active:
                    uf.union(s, nbr)
        groups: dict[str, list[CycleNode]] = {}
        for old in joined:
            groups.setdefault(uf.find(old), []).append(top.pop(old))
        for root, children in groups.items():
            top[root] = children[0]
            if len(children) > 1:
                top[root] = _merge(level, children, scale)
                nodes.append(top[root])

    (root,) = top.values()
    keys = {node: set_key(node.members) for node in nodes}
    nodes.sort(key=lambda node: (len(node.members), keys[node]))
    for node in nodes:
        node.children.sort(key=keys.__getitem__)
    return CycleTree(root, tuple(nodes), keys)


def depth(landscape: Landscape, members: Iterable[str]) -> Energy:
    """Boundary floor minus internal minimum; INFINITY for the whole space."""
    inside = landscape.subset(members)
    if not is_path_cycle(landscape, inside):
        raise NotACycle(f"{sorted(inside)} is not a path cycle")
    low = min(map(landscape.units, inside))
    return from_units(_floor_units(landscape, inside) - low, landscape.scale)


def resistance_height(landscape: Landscape, members: Iterable[str]) -> Energy:
    """Internal maximum minus internal minimum."""
    inside = landscape.subset(members)
    if not is_path_cycle(landscape, inside):
        raise NotACycle(f"{sorted(inside)} is not a path cycle")
    heights = list(map(landscape.units, inside))
    return Energy(max(heights) - min(heights), landscape.scale)


# -- export --------------------------------------------------------------------


def tree_to_dict(tree: CycleTree) -> dict:
    order = {node: i for i, node in enumerate(tree.nodes)}
    nodes = []
    for node in tree.nodes:
        nodes.append(
            {
                "members": list(tree.keys[node]),
                "gamma": str(node.depth),
                "gamma_tilde": str(node.resistance),
                "ground": list(set_key(node.ground)),
                "parent_index": order[node.parent] if node.parent else None,
            }
        )
    return {"nodes": nodes}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def tree_to_dot(tree: CycleTree) -> str:
    """Graph-description text: one node per cycle, edges parent -> child."""
    order = {node: i for i, node in enumerate(tree.nodes)}
    lines = ["digraph cycles {"]
    lines.append('  node [shape=box, fontname="monospace"];')
    for node in tree.nodes:
        label = _dot_escape("{" + ",".join(tree.keys[node]) + "}")
        lines.append(
            f'  n{order[node]} [label="{label}\\n'
            f'Γ={node.depth}, Γ̃={node.resistance}"];'
        )
    for node in tree.nodes:
        for child in node.children:
            lines.append(f"  n{order[node]} -> n{order[child]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
