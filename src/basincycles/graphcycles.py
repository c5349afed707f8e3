"""Recursive graph-cycle construction.

Starting from the partition into singletons with the Metropolis seed cost
``(H(j) - H(i))^+`` on connected pairs (infinite otherwise), each round:

1. subtracts every class's exit height (its cheapest outgoing cost) to get
   the renormalized cost,
2. groups classes that reach each other through zero-renormalized-cost paths
   (strongly connected components of the zero-cost digraph),
3. merges exactly the groups with no zero-cost escape into another group;
   non-minimal groups dissolve back into their previous classes,
4. assigns each new class its merge height (the largest exit height among
   its constituents) and rebuilds the cost matrix from the renormalized
   costs between constituents.

The rounds continue until the partition is the single whole-space class.
Every class of every round is a cycle; the union over rounds is the
hierarchy the rest of the package consumes.  Each class's exit and merge
heights are taken from the round that forms it, and its maximal proper
subcycles are the classes that round merged, so the hierarchy is never
rebuilt by comparing classes pairwise.

The rounds compute on plain ints, like the rest of the package: every cost
and height is a count of ``1/scale`` energy units, with ``math.inf`` as the
one infinity, so the arithmetic stays exact.  Each class's sort key is
computed once, when the class is created.  ``Energy`` appears only at the
boundary: the seed costs are read through their ``units``, and
``energy.from_units`` builds the ``PartitionLevel`` views, on first read, and
the trace's exit and merge heights.  Equal-cost ties resolve by set
semantics, so the trace is independent of state enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .energy import INFINITY, Energy, from_units
from .errors import (
    AlreadyTerminal,
    MalformedInput,
    NonTermination,
    UnknownClass,
)
from .landscape import Landscape, StateSet, metropolis_costs, reach
from .pathcycles import set_key

UnitRows = dict  # class -> {class -> int units}, finite entries only


def _validate_seed(landscape: Landscape, costs: Mapping) -> dict[tuple[str, str], Energy]:
    """A generic seed must be finite exactly on the q-positive ordered pairs
    and nonnegative there."""
    out = {}
    expected = metropolis_costs(landscape).keys()
    for (x, y), value in costs.items():
        value = landscape.energy_value(value)
        if value.is_infinite:
            continue
        if (x, y) not in expected:
            raise MalformedInput(f"seed cost on non-edge pair ({x!r}, {y!r})")
        if value.units < 0:
            raise MalformedInput(f"negative seed cost on ({x!r}, {y!r}): {value}")
        out[(x, y)] = value
    missing = expected - out.keys()
    if missing:
        raise MalformedInput(f"seed cost missing on edge pairs: {sorted(missing)[:3]}")
    return out


@dataclass(frozen=True)
class PartitionLevel:
    """One round of the recursion: the partition, its cost matrix, and the
    derived exit and merge heights.

    The round itself is stored in int units of ``1/scale``: ``cost_units``
    as ``{source: {destination: int}}`` with finite entries only (missing
    means infinite), ``exit_units`` as each class's cheapest outgoing cost
    (``math.inf`` for none) and ``merge_units`` as each class's merge height
    (None for the initial round).  ``keys`` maps every class of the trace to
    its sorted member tuple; the levels of one trace share it.

    ``cost``, ``exit_height``, ``renormalized`` and ``merge_height`` are the
    same quantities as ``Energy`` dicts, each built when it is first read;
    ``renormalized`` is the cost minus the source's exit height.  Infinite
    heights are ``INFINITY`` itself.
    """

    index: int
    classes: tuple[StateSet, ...]
    cost_units: UnitRows
    exit_units: dict
    merge_units: Optional[dict]
    scale: int
    keys: dict = field(compare=False, repr=False)

    @cached_property
    def cost(self) -> dict:
        return {
            src: {dst: Energy(v, self.scale) for dst, v in row.items()}
            for src, row in self.cost_units.items()
        }

    @cached_property
    def exit_height(self) -> dict:
        return {cls: from_units(h, self.scale) for cls, h in self.exit_units.items()}

    @cached_property
    def renormalized(self) -> dict:
        return {
            src: {dst: Energy(v - self.exit_units[src], self.scale) for dst, v in row.items()}
            for src, row in self.cost_units.items()
        }

    @cached_property
    def merge_height(self) -> Optional[dict]:
        if self.merge_units is None:
            return None
        return {cls: from_units(h, self.scale) for cls, h in self.merge_units.items()}

    @property
    def is_terminal(self) -> bool:
        return len(self.classes) == 1

    def class_set(self) -> frozenset:
        return frozenset(self.classes)

    def cost_between(self, a: StateSet, b: StateSet) -> Energy:
        self._check(a)
        self._check(b)
        return from_units(self.cost_units.get(a, {}).get(b, math.inf), self.scale)

    def renormalized_between(self, a: StateSet, b: StateSet) -> Energy:
        self._check(a)
        self._check(b)
        row = self.cost_units.get(a, {})
        if b not in row:
            return INFINITY
        return Energy(row[b] - self.exit_units[a], self.scale)

    def _check(self, cls: StateSet) -> None:
        if cls not in self.exit_units:
            raise UnknownClass(f"{sorted(cls)} is not a class of round {self.index}")


@dataclass(frozen=True)
class MergeStep:
    """The zero-cost merge groups of one round and the minimal ones that
    actually became new classes."""

    blocks: tuple[StateSet, ...]
    minimal: tuple[StateSet, ...]


def _finish_level(index: int, classes, cost: UnitRows, merge, scale: int, keys: dict) -> PartitionLevel:
    classes = tuple(sorted(classes, key=keys.__getitem__))
    exit_units = {cls: min(cost[cls].values()) if cls in cost else math.inf for cls in classes}
    return PartitionLevel(index, classes, cost, exit_units, merge, scale, keys)


def initial_level(landscape: Landscape, seed_costs=None) -> PartitionLevel:
    """The singleton partition with its seed cost matrix."""
    if seed_costs is None:
        pair_costs = metropolis_costs(landscape)
    else:
        pair_costs = _validate_seed(landscape, seed_costs)
    single = {s: frozenset((s,)) for s in landscape.states}
    cost: UnitRows = {}
    for (x, y), value in pair_costs.items():
        cost.setdefault(single[x], {})[single[y]] = value.units
    keys = {cls: (s,) for s, cls in single.items()}
    return _finish_level(0, single.values(), cost, None, landscape.scale, keys)


def zero_cost_reaches(level: PartitionLevel, source: StateSet, destination: StateSet) -> bool:
    """True iff a path of classes from source to destination exists whose
    every step has zero renormalized cost.  Every class reaches itself."""
    source = frozenset(source)
    destination = frozenset(destination)
    level._check(source)
    level._check(destination)
    adjacency = _zero_adjacency(level)
    return destination in reach([source], lambda cls: adjacency.get(cls, ()))


def _zero_adjacency(level: PartitionLevel) -> dict:
    """Each class's zero-renormalized-cost destinations, in row order."""
    exits = level.exit_units
    return {
        src: [dst for dst, v in row.items() if v == exits[src]]
        for src, row in level.cost_units.items()
    }


def _strongly_connected(nodes, adjacency) -> list[list]:
    """Kosaraju; deterministic given the canonical node order.  Both passes
    walk the graph themselves, not through ``reach`` (see ``landscape``)."""
    order = []
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        stack = [(start, iter(adjacency.get(start, ())))]
        while stack:
            node, it = stack[-1]
            pushed = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    pushed = True
                    break
            if not pushed:
                order.append(node)
                stack.pop()
    reverse: dict = {}
    for src, outs in adjacency.items():
        for dst in outs:
            reverse.setdefault(dst, []).append(src)
    assigned = set()
    components = []
    for node in reversed(order):
        if node in assigned:
            continue
        comp = []
        stack = [node]
        assigned.add(node)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for prv in reverse.get(cur, ()):
                if prv not in assigned:
                    assigned.add(prv)
                    stack.append(prv)
        components.append(comp)
    return components


def advance(level: PartitionLevel) -> tuple[PartitionLevel, tuple[StateSet, ...], tuple[StateSet, ...]]:
    """One round of the recursion.

    Returns the next level together with the merge groups and the minimal
    merge groups of this round.
    """
    if level.is_terminal:
        raise AlreadyTerminal("the partition is already the whole space")

    adjacency = _zero_adjacency(level)
    components = _strongly_connected(level.classes, adjacency)
    exits = level.exit_units
    keys = level.keys

    group_of = {}
    for gi, comp in enumerate(components):
        for cls in comp:
            group_of[cls] = gi

    blocks = []
    minimal = []
    container = {}  # class of this round -> its class in the next round
    merge = {}
    for gi, comp in enumerate(components):
        # minimal: no member class has a zero-cost step into another group
        if len(comp) == 1:
            block = comp[0]
            escapes = block in adjacency  # every nonempty row has a zero-cost step
        else:
            block = frozenset().union(*comp)
            if block not in keys:
                keys[block] = set_key(block)
            escapes = any(group_of[dst] != gi for cls in comp for dst in adjacency[cls])
        blocks.append(block)
        if escapes:
            for cls in comp:
                container[cls] = cls
                merge[cls] = exits[cls]
        else:
            minimal.append(block)
            for cls in comp:
                container[cls] = block
            merge[block] = max(exits[cls] for cls in comp)

    # each destination keeps its cheapest renormalized cost, lifted by the
    # source's merge height; ``container`` holds one object per next class
    cost: UnitRows = {}
    for src, row in level.cost_units.items():
        a = container[src]
        shift = merge[a] - exits[src]
        out = cost.setdefault(a, {})
        for dst, value in row.items():
            b = container[dst]
            if b is not a:
                value += shift
                if value < out.get(b, math.inf):
                    out[b] = value
    cost = {a: row for a, row in cost.items() if row}

    next_level = _finish_level(level.index + 1, merge, cost, merge, level.scale, keys)
    block_order = tuple(sorted(blocks, key=keys.__getitem__))
    minimal_order = tuple(sorted(minimal, key=keys.__getitem__))
    return next_level, block_order, minimal_order


@dataclass(frozen=True)
class DecompositionTrace:
    """The full run of the recursion: every round, every merge, and the
    resulting cycle hierarchy with its exit and merge heights."""

    levels: tuple[PartitionLevel, ...]
    merges: tuple[MergeStep, ...]
    cycles: tuple[StateSet, ...]
    exit_heights: dict
    merge_heights: dict
    iterations: int
    scale: int

    def cycle_set(self) -> frozenset:
        return frozenset(self.cycles)

    def maximal_proper(self, members: Iterable[str]) -> tuple[StateSet, ...]:
        """The maximal cycles strictly contained in the given cycle: the
        classes it was merged from in the round that formed it."""
        target = frozenset(members)
        if target not in self.exit_heights:
            raise UnknownClass(f"{sorted(target)} is not a cycle of this trace")
        for before, step in zip(self.levels, self.merges):
            if target in step.minimal:
                return tuple(cls for cls in before.classes if cls <= target)
        return ()


def run_decomposition(landscape: Landscape, seed_costs=None) -> DecompositionTrace:
    """Iterate the recursion from the singleton partition until the single
    whole-space class, keeping the complete trace.

    Both heights of a class are read from the round that forms it.  A living
    class keeps its exit height, because its cost row only loses entries
    when destinations merge under ``min``.  Its merge height, the largest
    exit height among its constituents, is also the largest exit height
    strictly inside it: every merged class exits no lower than it merged.
    """
    level = initial_level(landscape, seed_costs)
    levels = [level]
    merges = []
    exit_units = dict(level.exit_units)
    merge_units = dict(level.exit_units)  # a singleton merges at its exit height
    while not level.is_terminal:
        if len(levels) > landscape.n:
            raise NonTermination("recursion exceeded the state count")
        level, blocks, minimal = advance(level)
        levels.append(level)
        merges.append(MergeStep(blocks, minimal))
        for block in minimal:
            exit_units[block] = level.exit_units[block]
            merge_units[block] = level.merge_units[block]

    scale = landscape.scale
    keys = level.keys
    return DecompositionTrace(
        levels=tuple(levels),
        merges=tuple(merges),
        cycles=tuple(sorted(exit_units, key=lambda c: (len(c), keys[c]))),
        exit_heights={c: from_units(h, scale) for c, h in exit_units.items()},
        merge_heights={c: from_units(h, scale) for c, h in merge_units.items()},
        iterations=len(levels) - 1,
        scale=scale,
    )


# -- export --------------------------------------------------------------------


def _rows_to_list(rows: dict, keys: dict) -> list[dict]:
    entries = []
    for src in sorted(rows, key=keys.__getitem__):
        row = rows[src]
        for dst in sorted(row, key=keys.__getitem__):
            entries.append({"from": list(keys[src]), "to": list(keys[dst]), "value": str(row[dst])})
    return entries


def _heights_to_list(heights: dict, keys: dict) -> list[dict]:
    return [
        {"class": list(keys[cls]), "value": str(heights[cls])}
        for cls in sorted(heights, key=keys.__getitem__)
    ]


def level_to_dict(level: PartitionLevel) -> dict:
    keys = level.keys
    doc = {
        "index": level.index,
        "classes": [list(keys[c]) for c in level.classes],
        "cost": _rows_to_list(level.cost, keys),
        "exit_height": _heights_to_list(level.exit_height, keys),
        "renormalized_cost": _rows_to_list(level.renormalized, keys),
    }
    if level.merge_height is not None:
        doc["merge_height"] = _heights_to_list(level.merge_height, keys)
    return doc


def trace_to_dict(trace: DecompositionTrace, include_levels: bool = False) -> dict:
    keys = trace.levels[-1].keys
    doc: dict = {
        "iterations": trace.iterations,
        "cycles": [
            {
                "members": list(keys[c]),
                "exit_height": str(trace.exit_heights[c]),
                "merge_height": str(trace.merge_heights[c]),
            }
            for c in trace.cycles
        ],
    }
    if include_levels:
        doc["levels"] = [level_to_dict(lvl) for lvl in trace.levels]
        doc["merges"] = [
            {
                "into_iteration": i + 1,
                "merged": [list(keys[b]) for b in step.blocks],
                "merged_minimal": [list(keys[b]) for b in step.minimal],
            }
            for i, step in enumerate(trace.merges)
        ]
    return doc
