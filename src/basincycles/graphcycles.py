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

All arithmetic is exact; equal-cost ties resolve by set semantics so the
trace is independent of state enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .energy import INFINITY, Energy
from .errors import (
    AlreadyTerminal,
    MalformedInput,
    NonTermination,
    UnknownClass,
)
from .landscape import Landscape, StateSet
from .pathcycles import set_key

CostRows = dict  # class -> {class -> Energy}, finite entries only


def metropolis_costs(landscape: Landscape) -> dict[tuple[str, str], Energy]:
    """Seed costs on ordered connected pairs: the positive part of the
    energy climb."""
    costs = {}
    for x in landscape.states:
        hx = landscape.energy(x)
        for y in landscape.neighbors(x):
            costs[(x, y)] = (landscape.energy(y) - hx).clamp_nonneg()
    return costs


def _validate_seed(landscape: Landscape, costs: Mapping) -> dict[tuple[str, str], Energy]:
    """A generic seed must be finite exactly on the q-positive ordered pairs
    and nonnegative there."""
    zero = Energy(0, landscape.scale)
    out = {}
    expected = set()
    for x in landscape.states:
        for y in landscape.neighbors(x):
            expected.add((x, y))
    for pair, value in costs.items():
        x, y = pair
        if not isinstance(value, Energy):
            value = landscape.energy_value(value)
        if value.is_infinite:
            continue
        if (x, y) not in expected:
            raise MalformedInput(f"seed cost on non-edge pair ({x!r}, {y!r})")
        if value < zero:
            raise MalformedInput(f"negative seed cost on ({x!r}, {y!r}): {value}")
        out[(x, y)] = value
    missing = expected - out.keys()
    if missing:
        raise MalformedInput(f"seed cost missing on edge pairs: {sorted(missing)[:3]}")
    return out


@dataclass(frozen=True)
class PartitionLevel:
    """One round of the recursion: the partition, its cost matrix, and the
    derived exit heights and renormalized costs.

    ``cost`` and ``renormalized`` store finite entries only, as nested
    ``{source: {destination: Energy}}`` maps; missing means infinite.
    ``merge_height`` is None for the initial round.
    """

    index: int
    classes: tuple[StateSet, ...]
    cost: CostRows
    exit_height: dict
    renormalized: CostRows
    merge_height: Optional[dict]

    @property
    def is_terminal(self) -> bool:
        return len(self.classes) == 1

    def class_set(self) -> frozenset:
        return frozenset(self.classes)

    def cost_between(self, a: StateSet, b: StateSet) -> Energy:
        self._check(a)
        self._check(b)
        return self.cost.get(a, {}).get(b, INFINITY)

    def renormalized_between(self, a: StateSet, b: StateSet) -> Energy:
        self._check(a)
        self._check(b)
        return self.renormalized.get(a, {}).get(b, INFINITY)

    def _check(self, cls: StateSet) -> None:
        if cls not in self.exit_height:
            raise UnknownClass(f"{sorted(cls)} is not a class of round {self.index}")


@dataclass(frozen=True)
class MergeStep:
    """The zero-cost merge groups of one round and the minimal ones that
    actually became new classes."""

    blocks: tuple[StateSet, ...]
    minimal: tuple[StateSet, ...]


def _finish_level(index: int, classes, cost: CostRows, merge_height) -> PartitionLevel:
    classes = tuple(sorted(classes, key=set_key))
    exit_height = {}
    renormalized: CostRows = {}
    for cls in classes:
        row = cost.get(cls, {})
        exit_height[cls] = min(row.values(), default=INFINITY)
        if row:
            floor = exit_height[cls]
            renormalized[cls] = {dst: v - floor for dst, v in row.items()}
    return PartitionLevel(index, classes, cost, exit_height, renormalized, merge_height)


def initial_level(landscape: Landscape, seed_costs=None) -> PartitionLevel:
    """The singleton partition with its seed cost matrix."""
    if seed_costs is None:
        pair_costs = metropolis_costs(landscape)
    else:
        pair_costs = _validate_seed(landscape, seed_costs)
    cost: CostRows = {}
    for (x, y), value in pair_costs.items():
        cost.setdefault(frozenset((x,)), {})[frozenset((y,))] = value
    classes = [frozenset((s,)) for s in landscape.states]
    return _finish_level(0, classes, cost, None)


def zero_cost_reaches(level: PartitionLevel, source: StateSet, destination: StateSet) -> bool:
    """True iff a path of classes from source to destination exists whose
    every step has zero renormalized cost.  Every class reaches itself."""
    source = frozenset(source)
    destination = frozenset(destination)
    level._check(source)
    level._check(destination)
    if source == destination:
        return True
    adjacency = _zero_adjacency(level)
    seen = {source}
    stack = [source]
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt == destination:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _zero_adjacency(level: PartitionLevel) -> dict:
    adjacency = {}
    for src, row in level.renormalized.items():
        zero = Energy(0, next(iter(row.values())).scale) if row else None
        outs = [dst for dst, v in row.items() if v == zero]
        if outs:
            adjacency[src] = sorted(outs, key=set_key)
    return adjacency


def _strongly_connected(nodes, adjacency) -> list[list]:
    """Kosaraju; deterministic given the canonical node order."""
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

    group_of = {}
    for gi, comp in enumerate(components):
        for cls in comp:
            group_of[cls] = gi

    blocks = []
    minimal_flags = []
    for gi, comp in enumerate(components):
        union = frozenset().union(*comp)
        blocks.append(union)
        # minimal: no member class has a zero-cost step into another group
        escapes = any(
            group_of[dst] != gi for cls in comp for dst in adjacency.get(cls, ())
        )
        minimal_flags.append(not escapes)

    new_classes = []
    container = {}
    for gi, comp in enumerate(components):
        if minimal_flags[gi]:
            merged = blocks[gi]
            new_classes.append(merged)
            for cls in comp:
                container[cls] = merged
        else:
            for cls in comp:
                new_classes.append(cls)
                container[cls] = cls

    merge_height = {}
    for cls, dest in container.items():
        height = level.exit_height[cls]
        best = merge_height.get(dest)
        if best is None or height > best:
            merge_height[dest] = height

    cost: CostRows = {}
    for src, row in level.renormalized.items():
        base = merge_height[container[src]]
        for dst, value in row.items():
            a, b = container[src], container[dst]
            if a == b:
                continue
            candidate = base + value
            current = cost.setdefault(a, {}).get(b)
            if current is None or candidate < current:
                cost[a][b] = candidate

    next_level = _finish_level(level.index + 1, new_classes, cost, merge_height)
    block_order = tuple(sorted(blocks, key=set_key))
    minimal_order = tuple(
        sorted((b for b, m in zip(blocks, minimal_flags) if m), key=set_key)
    )
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
    exit_heights = dict(level.exit_height)
    merge_heights = dict(level.exit_height)  # a singleton merges at its exit height
    while not level.is_terminal:
        if len(levels) > landscape.n:
            raise NonTermination("recursion exceeded the state count")
        level, blocks, minimal = advance(level)
        levels.append(level)
        merges.append(MergeStep(blocks, minimal))
        for block in minimal:
            exit_heights[block] = level.exit_height[block]
            merge_heights[block] = level.merge_height[block]

    return DecompositionTrace(
        levels=tuple(levels),
        merges=tuple(merges),
        cycles=tuple(sorted(exit_heights, key=lambda c: (len(c), set_key(c)))),
        exit_heights=exit_heights,
        merge_heights=merge_heights,
        iterations=len(levels) - 1,
        scale=landscape.scale,
    )


# -- export --------------------------------------------------------------------


def _members(cls: StateSet) -> list[str]:
    return list(set_key(cls))


def _rows_to_list(rows: CostRows) -> list[dict]:
    entries = []
    for src in sorted(rows, key=set_key):
        for dst in sorted(rows[src], key=set_key):
            entries.append(
                {"from": _members(src), "to": _members(dst), "value": str(rows[src][dst])}
            )
    return entries


def _heights_to_list(heights: dict) -> list[dict]:
    return [
        {"class": _members(cls), "value": str(heights[cls])}
        for cls in sorted(heights, key=set_key)
    ]


def level_to_dict(level: PartitionLevel) -> dict:
    doc = {
        "index": level.index,
        "classes": [_members(c) for c in level.classes],
        "cost": _rows_to_list(level.cost),
        "exit_height": _heights_to_list(level.exit_height),
        "renormalized_cost": _rows_to_list(level.renormalized),
    }
    if level.merge_height is not None:
        doc["merge_height"] = _heights_to_list(level.merge_height)
    return doc


def trace_to_dict(trace: DecompositionTrace, include_levels: bool = False) -> dict:
    doc: dict = {
        "iterations": trace.iterations,
        "cycles": [
            {
                "members": _members(c),
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
                "merged": [_members(b) for b in step.blocks],
                "merged_minimal": [_members(b) for b in step.minimal],
            }
            for i, step in enumerate(trace.merges)
        ]
    return doc
