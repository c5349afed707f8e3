"""Recursive graph-cycle construction.

Starting from the partition into singletons with the Metropolis seed cost
``(H(j) - H(i))^+`` on connected pairs (infinite otherwise), each round:

1. takes each class's exit height, its cheapest outgoing cost; a step that
   costs exactly that has zero renormalized cost,
2. groups classes that reach each other through zero-renormalized-cost paths
   (strongly connected components of the zero-cost digraph),
3. merges exactly the groups with no zero-cost escape into another group
   (the minimal groups); every other class lives on as it was,
4. gives each new class its merge height (the largest exit height among its
   constituents) and its cost row: towards each other class, the cheapest
   constituent cost lifted by the merge height minus that constituent's
   exit height.

The rounds continue until the partition is the single whole-space class.
Every class of every round is a cycle; the union over rounds is the
hierarchy the rest of the package consumes.  Each class's exit and merge
heights are taken from the round that forms it, and its maximal proper
subcycles are the classes that round merged, so the hierarchy is never
rebuilt by comparing classes pairwise.

A round does only the work the previous round's merges made.  Its search
(step 2) is one Tarjan pass started from the classes the previous round
formed, every singleton in round 0, since every minimal group contains one
(``run_decomposition`` proves it).  The rounds name each live class by an
int *slot*.  A new class takes the slot of its constituent with the most
row entries, the host, so the rows pointing into the host and the host's
own row keep their slot.  The host's lift (merge height minus the host's
exit height) joins its row's lazy offset: a row stores its costs minus its
slot's lift.  Only the other constituents' rows are read, each once.  A
row holds an entry exactly where its destination's row holds one back:
the seed costs are finite exactly on connected pairs, and a merge keeps
that symmetric.  So each entry of an absorbed row folds into the host's
row, and a destination that lives on has its entry back relabelled to the
host's slot.  A big class that absorbs a small one pays for the small
one's edges, not for its own boundary.

``run_decomposition`` keeps one live round state, edited in place: each
slot's row, lift, exit and class id.  Each round appends one change
record: its merge groups (host plus constituents) with each host's new
lift, exit and merge height, and its edits, each entry it set or dropped
in a living row as ``(slot, destination, value or None)``, in the order it
made them; a record holds no row object.  The hierarchy is int records,
like the path tree's: leaf ``i`` is state ``i``, formed classes are ``n,
n + 1, ...`` in formation order, and ``RunRecords`` keeps each class's
size, smallest state id, children, and exit and merge heights.  The plain
export renders each cycle's entry as JSON text straight from the records,
its members from one depth-first leaf order (``pathcycles.leaf_layout``),
so a run builds no class set, sort key or ``Energy`` height.  The
singletons come first in class order, by id, and each fills the entry
template straight from its name; only the formed classes' slices are
sorted.  Round 0 and the search each run in one frame: each Metropolis row
and its exit are built in one loop over the ids, and no state, edge or
entry calls a Python function.

``equivalence.verify_equivalence`` reads the records alone: it applies
each round's record to a live state of its own, editing its rows in place
where ``_patch`` copies them, and builds no member set.  The trace's
``levels``, ``merges``, ``cycles``, ``exit_heights`` and ``merge_heights``
serve ``--iterations`` and the API; they are built on first read and then
kept.  ``levels`` starts from the round-0 state the run kept and patches
each level with its round's record into the next, with no second search
and no second fold; consecutive levels share every row object no edit
touched.  Each class's member frozenset and sort key are built there,
once, the key by merging its constituents'.  ``advance`` runs one round on
a copy of a level's state, searched from every class, and applies the same
patch.

The rounds compute on plain ints, like the rest of the package: every cost
and height is a count of ``1/scale`` energy units, with ``math.inf`` as the
one infinity, so the arithmetic stays exact.  The frozenset-keyed reads of a
``PartitionLevel`` and its ``Energy`` views are built from the slots on
first read; ``energy.from_units`` builds the ``Energy`` views and the
trace's exit and merge heights.  Equal-cost ties resolve by set semantics,
so the trace is independent of state enumeration order and of which
constituent hosts a merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Optional

from .energy import MAX_UNITS, Energy, from_units
from .errors import (
    AlreadyTerminal,
    MalformedInput,
    NonTermination,
)
from .landscape import HeightTexts, Landscape, Rendered, StateSet, parsed
from .pathcycles import leaf_layout, sorted_slices

SlotRows = dict  # slot -> {slot -> int units minus the source's lift}, finite and symmetric in support


def _validate_seed(landscape: Landscape, costs: Mapping) -> dict[tuple[int, int], int]:
    """A generic seed must be finite exactly on the q-positive ordered pairs
    and nonnegative there, as the numbering's adjacency says, and at most
    ``MAX_UNITS`` units, as an energy is.  The adjacency is symmetric, so
    this rule makes the finite costs symmetric in support, as the Metropolis
    seed's are, which ``_round`` relies on.  Returns its finite costs in int
    units, keyed by id pair."""
    names, index, _, adjacency = landscape.numbering()
    expected = {(i, j) for i, nbrs in enumerate(adjacency) for j in nbrs}
    out = {}
    for (x, y), value in costs.items():
        value = landscape.energy_value(value)
        if value.is_infinite:
            continue
        pair = index.get(x), index.get(y)
        if pair not in expected:
            raise MalformedInput(f"seed cost on non-edge pair ({x!r}, {y!r})")
        if value.units < 0:
            raise MalformedInput(f"negative seed cost on ({x!r}, {y!r}): {value}")
        if value.units > MAX_UNITS:
            raise MalformedInput(f"seed cost on ({x!r}, {y!r}) is past 2**1000 units")
        out[pair] = value.units
    missing = expected - out.keys()
    if missing:
        first = [(names[i], names[j]) for i, j in sorted(missing)[:3]]
        raise MalformedInput(f"seed cost missing on edge pairs: {first}")
    return out


@dataclass(frozen=True)
class PartitionLevel:
    """One round of the recursion: the partition, its cost matrix, and the
    derived exit and merge heights.  A run keeps no levels; a trace replays
    them from its records when they are first read (module docstring).

    The round itself is stored on int slots, in int units of ``1/scale``.
    ``members`` maps each live slot to its class.  ``rows`` holds each
    slot's finite costs as ``{source: {destination: int}}`` (missing means
    infinite), each stored minus the source's lift: the true cost is the
    stored value plus ``lifts.get(source, 0)``.  ``exits`` is each slot's
    cheapest true outgoing cost (``math.inf`` for none) and ``formed`` the
    merge height of each class this round formed (empty for round 0); a
    class that lives on merges at its exit height.  A slot names the same
    class until a merge it hosts, and each level's dicts are its own, while
    consecutive levels share every row that no edit touched; the views skip
    the emptied row the whole-space class keeps.  ``keys`` maps every class
    of the trace to its sorted member tuple; the levels of one trace share
    it.

    ``classes`` (in class order), ``cost_units``, ``exit_units`` and
    ``merge_units`` (None for the initial round) are the same round keyed by
    class, in true units.  ``cost``, ``exit_height``, ``renormalized`` and
    ``merge_height`` are the same quantities as ``Energy`` dicts;
    ``renormalized`` is the cost minus the source's exit height.  Each view
    is built when it is first read.  Infinite heights are ``INFINITY``
    itself.  Two levels are equal when these views are, whichever slots
    hold their classes.
    """

    index: int
    members: dict
    rows: SlotRows
    lifts: dict
    exits: dict
    formed: dict
    scale: int
    keys: dict = field(compare=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, PartitionLevel):
            return NotImplemented
        return self._round() == other._round()

    def _round(self) -> tuple:
        return self.index, self.scale, self.classes, self.cost_units, self.exit_units, self.merge_units

    @cached_property
    def classes(self) -> tuple[StateSet, ...]:
        return tuple(sorted(self.members.values(), key=self.keys.__getitem__))

    @cached_property
    def cost_units(self) -> dict:
        members, lifts = self.members, self.lifts
        out = {}
        for src, row in self.rows.items():
            if row:
                lift = lifts.get(src, 0)
                out[members[src]] = {members[dst]: v + lift for dst, v in row.items()}
        return out

    @cached_property
    def exit_units(self) -> dict:
        members = self.members
        return {members[slot]: h for slot, h in self.exits.items()}

    @cached_property
    def merge_units(self) -> Optional[dict]:
        if self.index == 0:
            return None
        members, formed = self.members, self.formed
        return {members[slot]: formed.get(slot, h) for slot, h in self.exits.items()}

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
        return len(self.members) == 1

    def class_set(self) -> frozenset:
        return frozenset(self.members.values())


@dataclass(frozen=True)
class MergeStep:
    """The zero-cost merge groups of one round and the minimal ones that
    actually became new classes.

    ``level`` is the partition the round started from.  ``blocks``, every
    strongly connected group of its zero-cost digraph, is read only by the
    ``--iterations`` export and the API, so it is searched for when first
    read.
    """

    level: PartitionLevel = field(repr=False)
    minimal: tuple[StateSet, ...]

    @cached_property
    def blocks(self) -> tuple[StateSet, ...]:
        level = self.level
        return _block_order(level, _zero_components(level.rows, level.lifts, level.exits, level.members))


def _start(landscape: Landscape, seed_costs) -> tuple:
    """Round 0 on slots: the state names, each slot's row of finite seed
    costs and each slot's exit height.  Slot ``i`` holds state ``i`` of
    ``landscape.numbering()``, the ``i``-th in sorted order, whose int units
    and adjacency give the Metropolis climbs."""
    names, _, height, adjacency = landscape.numbering()
    rows: SlotRows = {}
    if seed_costs is None:  # each row and its exit in one loop, in id order
        exits = {}
        for i, nbrs in enumerate(adjacency):
            least = math.inf
            if nbrs:
                h, row = height[i], {}
                for j in nbrs:
                    d = height[j] - h
                    row[j] = d = d if d > 0 else 0
                    if d < least:
                        least = d
                rows[i] = row
            exits[i] = least
        return names, rows, exits
    for (i, j), units in _validate_seed(landscape, seed_costs).items():
        rows.setdefault(i, {})[j] = units
    exits = {i: min(rows[i].values()) if i in rows else math.inf for i in range(len(names))}
    return names, rows, exits


def _first_level(names, rows: SlotRows, exits: dict, scale: int) -> PartitionLevel:
    members = {i: frozenset((s,)) for i, s in enumerate(names)}
    keys = {members[i]: (s,) for i, s in enumerate(names)}
    return PartitionLevel(0, members, rows, {}, exits, {}, scale, keys)


def initial_level(landscape: Landscape, seed_costs=None) -> PartitionLevel:
    """The singleton partition with its seed cost matrix: round 0, from
    which every run starts."""
    return _first_level(*_start(landscape, seed_costs), landscape.scale)


def _zero_components(
    rows: SlotRows, lifts: dict, exits: dict, starts: Iterable[int]
) -> list[tuple[list, bool]]:
    """Tarjan's strongly connected components of the zero-cost digraph over
    the slots reachable from ``starts``, each with whether a member has a
    zero-cost step out of it.  The set searched is closed under steps, so
    these are components of the whole digraph.  The walk is its own, not
    ``reach``, since it numbers the slots (see ``landscape``); it runs in
    one frame, so visiting a slot calls no Python function.  A slot's zero
    steps are the entries of its row at its exit height less its lift."""
    number: dict = {}
    low: dict = {}
    steps: dict = {}
    component: dict = {}  # slot -> index into ``found``, once complete
    path = []
    found = []
    for root in starts:
        if root in number:
            continue
        frames = []
        slot, todo = root, None
        while True:
            if todo is None:  # enter ``slot``
                number[slot] = low[slot] = len(number)
                path.append(slot)
                out = steps[slot] = []
                row = rows.get(slot)
                if row:
                    least = exits[slot] - lifts.get(slot, 0)
                    for dst, value in row.items():
                        if value == least:
                            out.append(dst)
                todo = iter(out)
            for nxt in todo:
                if nxt not in number:
                    frames.append((slot, todo))
                    slot, todo = nxt, None
                    break
                if nxt not in component and number[nxt] < low[slot]:  # on the path
                    low[slot] = number[nxt]
            else:  # every step of ``slot`` is done
                if low[slot] == number[slot]:
                    k = len(found)
                    group = []
                    while not group or group[-1] != slot:
                        group.append(path.pop())
                        component[group[-1]] = k
                    if len(group) == 1:  # a step from a lone slot leaves its component
                        escapes = bool(steps[slot])
                    else:
                        escapes = any(component[d] != k for m in group for d in steps[m])
                    found.append((group, escapes))
                if not frames:
                    break
                child_low = low[slot]
                slot, todo = frames.pop()
                if child_low < low[slot]:
                    low[slot] = child_low
    return found


def _union(parts: list, keys: dict) -> StateSet:
    """The union of the classes ``parts``, with its sort key recorded.  The
    key sorts the parts' keys laid end to end; they are sorted runs, which
    the sort merges."""
    if len(parts) == 1:
        return parts[0]
    block = parts[0].union(*parts[1:])
    if block not in keys:
        key = []
        for part in parts:
            key += keys[part]
        key.sort()
        keys[block] = tuple(key)
    return block


def _block_order(level: PartitionLevel, components: list) -> tuple[StateSet, ...]:
    """The components' member unions, in class order."""
    members, keys = level.members, level.keys
    blocks = (_union([members[slot] for slot in group], keys) for group, _ in components)
    return tuple(sorted(blocks, key=keys.__getitem__))


def _round(rows: SlotRows, lifts: dict, exits: dict, starts: Iterable[int]):
    """One round of the recursion on a live state, searched from ``starts``.
    ``rows``, ``lifts`` and ``exits`` are brought up to the next round in
    place.  Each absorbed slot's row is read once: the rows are symmetric in
    support (``_validate_seed``), so the living slots with an entry into it
    are the living destinations of its own row.

    Returns the round's change record, ``(groups, edits)``, and every
    component the search found.  ``groups`` lists each merge as ``(host,
    slots, lift, exit, height)``: the host's new lift, exit and merge height
    after the slots of its group, host included.  ``edits`` lists each entry
    the round set or dropped in a living row, as ``(slot, destination, value
    or None)``, in the order it made them; the absorbed slots' rows go with
    their slots.
    """
    components = _zero_components(rows, lifts, exits, starts)
    host_of = {}  # merged slot -> the slot of its new class
    groups = []
    for group, escapes in components:
        if not escapes:
            host = max(group, key=lambda slot: len(rows[slot]))
            groups.append((host, group))
            for slot in group:
                host_of[slot] = host

    edits = []
    merged = []  # (host, slots, lift, height), the exit filled in below
    # each destination keeps its cheapest lifted cost; the host's own
    # entries keep their stored values under the host's new lift
    for host, group in groups:
        height = max(exits[slot] for slot in group)
        lift = lifts.get(host, 0) + height - exits[host]
        row = rows[host]
        for slot in group:
            if slot == host:
                continue
            shift = lifts.get(slot, 0) + height - exits[slot] - lift
            for dst, value in rows.pop(slot).items():
                target = host_of.get(dst, dst)
                if target == dst:
                    # a living row keeps its value into the absorbed slot
                    # under the host's slot; the host drops it
                    back = rows[dst]
                    stored = back.pop(slot)
                    edits.append((dst, slot, None))
                    if dst != host and stored < back.get(host, math.inf):
                        back[host] = stored
                        edits.append((dst, host, stored))
                if target != host:
                    value += shift
                    if value < row.get(target, math.inf):
                        row[target] = value
                        edits.append((host, target, value))
            del exits[slot]
            lifts.pop(slot, None)
        lifts[host] = lift
        merged.append((host, group, lift, height))
    for k, (host, group, lift, height) in enumerate(merged):
        exits[host] = exit_height = min(rows[host].values(), default=math.inf) + lift
        merged[k] = host, group, lift, exit_height, height
    return (merged, edits), components


def _patch(level: PartitionLevel, record) -> PartitionLevel:
    """The level after ``level``, from its round's change record: the
    absorbed slots go, each host takes its new class, lift, exit and merge
    height, and the edits are applied.  A row is copied the first time an
    edit lands on it; every other row object is ``level``'s own."""
    groups, edits = record
    members, rows = dict(level.members), dict(level.rows)
    lifts, exits = dict(level.lifts), dict(level.exits)
    keys, formed = level.keys, {}
    for host, group, lift, exit_height, height in groups:
        parts = []
        for slot in group:
            parts.append(members[slot])
            if slot != host:
                del members[slot], rows[slot], exits[slot]
                lifts.pop(slot, None)
        members[host] = _union(parts, keys)
        lifts[host], exits[host], formed[host] = lift, exit_height, height
    copied = {}
    for slot, dst, value in edits:
        row = copied.get(slot)
        if row is None:
            row = copied[slot] = rows[slot] = dict(rows[slot])
        if value is None:
            row.pop(dst, None)
        else:
            row[dst] = value
    return PartitionLevel(level.index + 1, members, rows, lifts, exits, formed, level.scale, keys)


def _minimal(level: PartitionLevel) -> tuple[StateSet, ...]:
    """The classes ``level``'s round formed, in class order."""
    return tuple(sorted(map(level.members.__getitem__, level.formed), key=level.keys.__getitem__))


def _merge_step(before: PartitionLevel, after: PartitionLevel) -> MergeStep:
    return MergeStep(before, _minimal(after))


def advance(level: PartitionLevel) -> tuple[PartitionLevel, tuple[StateSet, ...], tuple[StateSet, ...]]:
    """One round of the recursion, searched from every class.

    Returns the next level together with the merge groups and the minimal
    merge groups of this round.
    """
    if level.is_terminal:
        raise AlreadyTerminal("the partition is already the whole space")
    rows = {slot: dict(row) for slot, row in level.rows.items()}
    record, components = _round(rows, dict(level.lifts), dict(level.exits), level.members)
    after = _patch(level, record)
    return after, _block_order(level, components), _minimal(after)


class RunRecords:
    """What ``run_decomposition`` keeps (module docstring).  ``names`` are
    the states by id; ``start`` is round 0's ``(rows, exits)``, each row
    copied, since the run edits the live ones in place; ``rounds`` holds
    each round's change record, as ``_round`` returns it.  The
    hierarchy is kept in lists by class id: ``size``, ``first`` (the
    smallest state id), ``exit`` and ``merge`` (heights in int units), with
    ``children``, the constituents' ids of each formed class."""

    def __init__(self, names, rows: SlotRows, exits: dict):
        n = len(names)
        self.names, self.rounds = names, []
        self.start = {slot: dict(row) for slot, row in rows.items()}, dict(exits)
        self.size, self.first, self.children = [1] * n, list(range(n)), {}
        self.exit = list(exits.values())
        self.merge = list(self.exit)  # a singleton merges at its exit height

    def order(self) -> list[int]:
        """The class ids by (size, smallest state id): two classes of one
        size are disjoint, so this is the order by sorted members.  The
        singletons come first, by id, since every formed class merges two
        or more."""
        n, key = len(self.names), list(zip(self.size, self.first))
        return list(range(n)) + sorted(range(n, len(key)), key=key.__getitem__)


def _replay(records: RunRecords, scale: int) -> tuple:
    """Every level, replayed from the records (each level is the one
    before, patched), each class's member set by class id, and the exit and
    merge height views; a class that merges at its exit height shares one
    ``Energy``."""
    level = _first_level(records.names, *records.start, scale)
    levels, sets = [level], list(level.members.values())
    for record in records.rounds:
        level = _patch(level, record)
        levels.append(level)
        sets += map(level.members.__getitem__, level.formed)  # in formation order
    exit_heights, merge_heights = {}, {}
    for cls, exit_units, merge_units in zip(sets, records.exit, records.merge):
        exit_heights[cls] = height = from_units(exit_units, scale)
        merge_heights[cls] = height if merge_units == exit_units else from_units(merge_units, scale)
    return tuple(levels), sets, exit_heights, merge_heights


@dataclass(frozen=True, eq=False)
class DecompositionTrace:
    """The full run of the recursion: the records ``run_decomposition``
    kept, and views built from them on first read and then kept: every
    round (``levels``, replayed), every merge, and the resulting cycle
    hierarchy with its exit and merge heights as ``Energy``.  The plain
    export and ``verify`` read the records and build none of the views,
    and neither do ``repr`` and ``==`` (which is identity)."""

    iterations: int
    scale: int
    records: RunRecords = field(repr=False)

    @cached_property
    def _replayed(self) -> tuple:
        return _replay(self.records, self.scale)

    @cached_property
    def levels(self) -> tuple:
        return self._replayed[0]

    @cached_property
    def merges(self) -> tuple:
        return tuple(map(_merge_step, self.levels, self.levels[1:]))

    @cached_property
    def cycles(self) -> tuple:
        return tuple(map(self._replayed[1].__getitem__, self.records.order()))

    @cached_property
    def exit_heights(self) -> dict:
        return self._replayed[2]

    @cached_property
    def merge_heights(self) -> dict:
        return self._replayed[3]


def run_decomposition(landscape: Landscape, seed_costs=None) -> DecompositionTrace:
    """Iterate the recursion from the singleton partition until the single
    whole-space class, keeping the records of the module docstring.

    Both heights of a class are read from the round that forms it.  A living
    class keeps its exit height, because its cost row only loses entries
    when destinations merge under ``min``.  Its merge height, the largest
    exit height among its constituents, is also the largest exit height
    strictly inside it: every merged class exits no lower than it merged.

    Each round after the first searches only from the classes the round
    before formed.  That finds every minimal group, because every minimal
    group of round k + 1 with no class formed in round k was already
    minimal in round k.  Proof: let G be such a group.  Its classes lived
    through round k, so their rows changed only by relabelling entries into
    merged classes, with the same values and exit heights; a class has a
    zero-cost step into a new class exactly when it had one into a
    constituent.  G has no zero-cost escape, so every zero-cost step of its
    classes in round k already stayed inside G, and the paths joining them
    ran inside G too.  So G was a group of round k with no escape, and
    merged then, which contradicts its classes living on.
    """
    names, rows, exits = _start(landscape, seed_costs)
    records = RunRecords(names, rows, exits)
    rounds, size, first, children = records.rounds, records.size, records.first, records.children
    exit_units, merge_units = records.exit, records.merge
    lifts: dict = {}
    cls = list(range(len(names)))  # slot -> the id of its class
    fresh: Iterable[int] = range(len(names))
    while len(exits) > 1:
        if len(rounds) >= len(names):
            raise NonTermination("recursion exceeded the state count")
        record, _ = _round(rows, lifts, exits, fresh)
        rounds.append(record)
        fresh = []
        for host, group, _, exit_height, height in record[0]:
            kids = list(map(cls.__getitem__, group))
            cls[host] = v = len(size)
            children[v] = kids
            size.append(sum(map(size.__getitem__, kids)))
            first.append(min(map(first.__getitem__, kids)))
            exit_units.append(exit_height)
            merge_units.append(height)
            fresh.append(host)
    return DecompositionTrace(len(rounds), landscape.scale, records)


# -- export --------------------------------------------------------------------


# one cycle entry at depth 0; ``cycle_entries`` moves it to its own depth
_CYCLE = """{
  "members": [
    %s
  ],
  "exit_height": %s,
  "merge_height": %s
}"""


def cycle_entries(records: RunRecords, scale: int, newline: str) -> Iterator[str]:
    """Each cycle's entry as JSON text in class order, laid out at
    ``newline``'s depth, from the records: its members from the sorted
    slices of one depth-first leaf order, and its exit and merge heights.
    Each name is encoded once, each height text built once per distinct
    value.  The singletons come first in class order, by id, and each fills
    the template straight from its name; only the formed classes' slices
    are sorted."""
    template, item = _CYCLE.replace("\n", newline), "," + newline + "    "
    encoded = list(map(encode_basestring_ascii, records.names))
    # a list's __getitem__ maps about twice as fast as a tuple's
    name, text, n = encoded.__getitem__, HeightTexts(scale), len(encoded)
    exit_units, merge_units = records.exit, records.merge
    for v, single in enumerate(encoded):
        yield template % (single, text[exit_units[v]], text[merge_units[v]])
    lo, hi, leaves = leaf_layout(records.size, records.children, n)
    for v, ids in sorted_slices(leaves, lo, hi, records.order()[n:]):
        yield template % (item.join(map(name, ids)), text[exit_units[v]], text[merge_units[v]])


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


def trace_document(trace: DecompositionTrace, include_levels: bool = False) -> dict:
    """The ``decomposition-trace`` document's body, its cycles a ``Rendered``
    array; ``include_levels`` adds every level and merge as plain dicts."""
    cycles = Rendered(partial(cycle_entries, trace.records, trace.scale))
    doc: dict = {"iterations": trace.iterations, "cycles": cycles}
    if include_levels:
        keys = trace.levels[-1].keys
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


def trace_to_dict(trace: DecompositionTrace, include_levels: bool = False) -> dict:
    """``trace_document`` as plain lists and dicts, the cycles parsed from
    their entries."""
    return parsed(trace_document(trace, include_levels))
