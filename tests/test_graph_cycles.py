"""The recursive decomposition: golden values, algebra, invariants."""

import math
import random
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

import basincycles
from basincycles import (
    Energy,
    INFINITY,
    advance,
    initial_level,
    load_landscape,
    make_landscape,
    random_landscape,
    run_decomposition,
)
from basincycles.errors import (
    AlreadyTerminal,
    MalformedInput,
)
from basincycles import cli, graphcycles
from basincycles.cli import main
from basincycles.energy import from_units
from basincycles.equivalence import verify_equivalence
from basincycles.graphcycles import MergeStep, PartitionLevel, trace_to_dict
from basincycles.landscape import reach
from basincycles.pathcycles import set_key

from conftest import (
    DATA,
    components,
    draw_landscape,
    grid_text,
    make_fig1_shuffled,
    metropolis_seed,
)

E = Energy.from_int
_units = attrgetter("units")


def fs(letters):
    return frozenset(letters)


def between(view, a, b):
    """A round's class-keyed cost view read from ``a`` to ``b``; a missing
    entry is infinite."""
    return view.get(a, {}).get(b, INFINITY)


def test_initial_level_fig1(fig1):
    lvl = initial_level(fig1)
    assert lvl.index == 0
    assert set(lvl.classes) == {fs(s) for s in "abcdefghijk"}
    nonzero = {
        ("a", "b"): 3,
        ("c", "b"): 4,
        ("c", "d"): 1,
        ("f", "g"): 2,
        ("h", "g"): 1,
        ("i", "j"): 1,
        ("i", "h"): 3,
        ("j", "k"): 4,
    }
    for (x, y), want in nonzero.items():
        assert between(lvl.cost, fs(x), fs(y)) == E(want)
    # all other connected singleton pairs cost zero, disconnected infinite
    for x, y in fig1.edge_pairs():
        for src, dst in ((x, y), (y, x)):
            expected = E(nonzero.get((src, dst), 0))
            assert between(lvl.cost, fs(src), fs(dst)) == expected
    assert between(lvl.cost, fs("a"), fs("c")) is INFINITY
    assert between(lvl.cost, fs("e"), fs("g")) is INFINITY


def test_initial_exit_heights_fig1(fig1):
    lvl = initial_level(fig1)
    assert lvl.exit_height[fs("a")] == E(3)
    assert lvl.exit_height[fs("c")] == E(1)
    assert lvl.exit_height[fs("i")] == E(1)
    for s in "bdefghjk":
        assert lvl.exit_height[fs(s)] == E(0)


def test_initial_level_flat():
    L = make_landscape({"x": 4, "y": 4, "z": 4}, [("x", "y"), ("y", "z")])
    lvl = initial_level(L)
    for src, row in lvl.cost.items():
        for value in row.values():
            assert value == E(0)
    assert all(h == E(0) for h in lvl.exit_height.values())


def test_advance_iteration_one(fig1):
    lvl0 = initial_level(fig1)
    lvl1, blocks, minimal = advance(lvl0)
    assert set(blocks) == {fs("ab"), fs("cdef"), fs("g"), fs("h"), fs("ij"), fs("k")}
    assert set(minimal) == {fs("cdef"), fs("ij")}
    assert set(lvl1.classes) == {
        fs("a"),
        fs("b"),
        fs("cdef"),
        fs("g"),
        fs("h"),
        fs("ij"),
        fs("k"),
    }
    assert lvl1.merge_height[fs("a")] == E(3)
    assert lvl1.merge_height[fs("cdef")] == E(1)
    assert lvl1.merge_height[fs("ij")] == E(1)
    for s in "bghk":
        assert lvl1.merge_height[fs(s)] == E(0)
    expected_v1 = {
        (fs("cdef"), fs("b")): 4,
        (fs("cdef"), fs("g")): 3,
        (fs("ij"), fs("h")): 3,
        (fs("ij"), fs("k")): 5,
        (fs("b"), fs("cdef")): 0,
        (fs("g"), fs("cdef")): 0,
        (fs("h"), fs("ij")): 0,
        (fs("k"), fs("ij")): 0,
    }
    for (src, dst), want in expected_v1.items():
        assert between(lvl1.cost, src, dst) == E(want)
    # carried-over classes keep their old costs
    assert between(lvl1.cost, fs("a"), fs("b")) == E(3)
    assert between(lvl1.cost, fs("h"), fs("g")) == E(1)


def test_advance_iteration_two(fig1):
    lvl1, _, _ = advance(initial_level(fig1))
    assert lvl1.exit_height[fs("ij")] == E(3)
    assert lvl1.exit_height[fs("cdef")] == E(3)
    assert between(lvl1.renormalized, fs("cdef"), fs("b")) == E(1)
    assert between(lvl1.renormalized, fs("ij"), fs("k")) == E(2)
    assert between(lvl1.renormalized, fs("h"), fs("g")) == E(1)
    lvl2, blocks, minimal = advance(lvl1)
    assert set(blocks) == {fs("ab"), fs("cdefg"), fs("hij"), fs("k")}
    assert set(minimal) == {fs("hij")}
    assert set(lvl2.classes) == {fs("a"), fs("b"), fs("cdef"), fs("g"), fs("hij"), fs("k")}
    assert lvl2.merge_height[fs("hij")] == E(3)


def test_advance_iterations_three_four(fig1):
    lvl = initial_level(fig1)
    for _ in range(2):
        lvl, _, _ = advance(lvl)
    assert lvl.exit_height[fs("hij")] == E(4)
    lvl3, _, minimal3 = advance(lvl)
    assert set(minimal3) == {fs("cdefghij")}
    assert set(lvl3.classes) == {fs("a"), fs("b"), fs("cdefghij"), fs("k")}
    assert lvl3.merge_height[fs("cdefghij")] == E(4)
    assert lvl3.exit_height[fs("cdefghij")] == E(5)
    lvl4, _, _ = advance(lvl3)
    assert lvl4.classes == (fs("abcdefghijk"),)
    assert lvl4.merge_height[fs("abcdefghijk")] == E(5)
    assert lvl4.exit_height[fs("abcdefghijk")] is INFINITY
    with pytest.raises(AlreadyTerminal):
        advance(lvl4)


def test_run_decomposition_fig1(fig1):
    trace = run_decomposition(fig1)
    assert trace.iterations == 4
    expected = {fs(s) for s in "abcdefghijk"} | {
        fs("cdef"),
        fs("ij"),
        fs("hij"),
        fs("cdefghij"),
        fs("abcdefghijk"),
    }
    assert frozenset(trace.cycles) == expected
    assert trace.exit_heights[fs("abcdefghijk")] is INFINITY
    assert trace.merge_heights[fs("abcdefghijk")] == E(5)
    # {h, i, j} forms in the round from the level where {h} and {i, j} live
    (before,) = [b for b, step in zip(trace.levels, trace.merges) if fs("hij") in step.minimal]
    assert tuple(c for c in before.classes if c <= fs("hij")) == (fs("h"), fs("ij"))
    assert fs("de") not in trace.exit_heights


def test_single_state_landscape():
    L = make_landscape({"x": 1}, [])
    trace = run_decomposition(L)
    assert trace.iterations == 0
    assert trace.cycles == (frozenset({"x"}),)
    assert trace.exit_heights[frozenset({"x"})] is INFINITY


def test_drop_equation_and_fresh_minima(fig1):
    trace = run_decomposition(fig1)
    for k in range(trace.iterations):
        cur, nxt = trace.levels[k], trace.levels[k + 1]
        shared = set(cur.classes) & set(nxt.classes)
        for cls in shared:
            assert nxt.merge_height[cls] == nxt.exit_height[cls] == cur.exit_height[cls]
        fresh = set(nxt.classes) - set(cur.classes)
        assert fresh == set(trace.merges[k].minimal)


def test_cost_stability(fig1):
    trace = run_decomposition(fig1)
    for k in range(trace.iterations):
        cur, nxt = trace.levels[k], trace.levels[k + 1]
        shared = set(cur.classes) & set(nxt.classes)
        for a in shared:
            for b in shared:
                if a != b:
                    assert between(nxt.cost, a, b) == between(cur.cost, a, b)


def test_partition_law(fig1):
    trace = run_decomposition(fig1)
    whole = set(fig1.states)
    for level in trace.levels:
        union = set()
        for cls in level.classes:
            assert not (union & cls)
            union |= cls
        assert union == whole
    for k in range(trace.iterations):
        old = trace.levels[k].classes
        for cls in trace.levels[k + 1].classes:
            parts = [c for c in old if c <= cls]
            assert frozenset().union(*parts) == cls


def test_hierarchy_nested_or_disjoint(fig1):
    cycles = run_decomposition(fig1).cycles
    for a in cycles:
        for b in cycles:
            if a & b:
                assert a <= b or b <= a


def test_trace_order_independent(fig1):
    base = trace_to_dict(run_decomposition(fig1), include_levels=True)
    for seed in (5, 11, 37):
        shuffled = make_fig1_shuffled(random.Random(seed))
        got = trace_to_dict(run_decomposition(shuffled), include_levels=True)
        assert got == base


def test_generic_seed_costs(fig1):
    # a valid non-Metropolis seed: unit cost on every directed edge
    seed = {}
    for x, y in fig1.edge_pairs():
        seed[(x, y)] = E(1)
        seed[(y, x)] = E(1)
    trace = run_decomposition(fig1, seed_costs=seed)
    assert trace.levels[0].exit_height[fs("a")] == E(1)
    whole = frozenset(fig1.states)
    assert trace.levels[-1].classes == (whole,)
    assert trace.exit_heights[whole] is INFINITY
    for level in trace.levels:
        union = set()
        for cls in level.classes:
            union |= cls
        assert union == set(fig1.states)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_generic_seed_hierarchy(data):
    # any valid seed, not only the Metropolis one, yields connected cycles,
    # nested or disjoint, whose heights order along the nesting
    L = draw_landscape(data)
    seed = {
        (x, y): E(data.draw(st.integers(0, 6), label="seed-cost"))
        for x in sorted(L.states)
        for y in sorted(L.neighbors(x))
    }
    trace = run_decomposition(L, seed_costs=seed)
    for b in trace.cycles:
        assert len(components(L, b)) == 1, sorted(b)
        if len(b) > 1:
            assert trace.merge_heights[b].units <= trace.exit_heights[b].units, sorted(b)
        for a in trace.cycles:
            assert a <= b or b <= a or not a & b
            if a < b:
                assert trace.exit_heights[a].units <= trace.merge_heights[b].units, (
                    sorted(a),
                    sorted(b),
                )


def test_seed_cost_validation(fig1):
    with pytest.raises(MalformedInput):
        run_decomposition(fig1, seed_costs={("a", "c"): E(1)})
    bad = metropolis_seed(fig1)
    bad[("a", "b")] = Energy(-5, fig1.scale)
    with pytest.raises(MalformedInput):
        run_decomposition(fig1, seed_costs=bad)
    partial = metropolis_seed(fig1)
    del partial[("a", "b")]
    with pytest.raises(MalformedInput):
        run_decomposition(fig1, seed_costs=partial)


def test_metropolis_seed_matches_table(fig1):
    costs = initial_level(fig1).cost
    assert costs[fs("a")][fs("b")] == E(3)
    assert costs[fs("b")][fs("a")] == E(0)
    assert fs("c") not in costs[fs("a")]
    assert sum(map(len, costs.values())) == 20


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_structural_invariants_random(data):
    n = data.draw(st.integers(2, 8))
    energies = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    extra = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)
    )
    ids = [f"s{i}" for i in range(n)]
    edges = {frozenset((ids[i], ids[p])) for i, p in enumerate(parents, start=1)}
    edges.update(frozenset((ids[a], ids[b])) for a, b in extra if a != b)
    L = make_landscape(
        {ids[i]: energies[i] for i in range(n)},
        sorted(tuple(sorted(e)) for e in edges),
    )
    trace = run_decomposition(L)
    assert trace.levels[0].classes == tuple(
        sorted((frozenset((s,)) for s in ids), key=set_key)
    )
    assert trace.levels[-1].classes == (frozenset(ids),)
    for k in range(trace.iterations):
        cur, nxt = trace.levels[k], trace.levels[k + 1]
        shared = set(cur.classes) & set(nxt.classes)
        for cls in shared:
            assert nxt.merge_height[cls] == nxt.exit_height[cls] == cur.exit_height[cls]
        assert set(nxt.classes) - set(cur.classes) == set(trace.merges[k].minimal)
        for a in shared:
            for b in shared:
                if a != b:
                    assert between(nxt.cost, a, b) == between(cur.cost, a, b)


def _reference_heights(trace, zero):
    """The quadratic definitions: exit height is the largest over every round
    the class lives in; a non-singleton's merge height is the largest exit
    height strictly inside it, clamped at zero; maximal proper cycles are the
    strict subcycles no other strict subcycle contains."""
    exit_heights = {}
    for level in trace.levels:
        for cls in level.classes:
            height = level.exit_height[cls]
            if cls not in exit_heights or height.units > exit_heights[cls].units:
                exit_heights[cls] = height
    merge_heights = {}
    maximal = {}
    for cyc in exit_heights:
        proper = [c for c in exit_heights if c < cyc]
        if len(cyc) == 1:
            merge_heights[cyc] = exit_heights[cyc]
        else:
            merge_heights[cyc] = max([zero] + [exit_heights[c] for c in proper], key=_units)
        maximal[cyc] = tuple(
            sorted((c for c in proper if not any(c < o for o in proper)), key=set_key)
        )
    return exit_heights, merge_heights, maximal


def test_heights_recorded_at_formation_match_definitions():
    for seed in range(150):
        rng = random.Random(seed)
        L = random_landscape(seed=seed, max_states=10, max_energy=rng.choice([1, 3, 8]))
        generic = {(x, y): E(rng.randint(0, 4)) for x in L.states for y in L.neighbors(x)}
        for seed_costs in (None, generic):
            trace = run_decomposition(L, seed_costs=seed_costs)
            exit_heights, merge_heights, maximal = _reference_heights(trace, E(0))
            assert trace.exit_heights == exit_heights
            assert trace.merge_heights == merge_heights
            assert trace.cycles == tuple(sorted(exit_heights, key=lambda c: (len(c), set_key(c))))
            merged_from = {}  # each merged class -> the classes of the round that formed it
            for before, step in zip(trace.levels, trace.merges):
                for cyc in step.minimal:
                    merged_from[cyc] = tuple(c for c in before.classes if c <= cyc)
            for cyc in trace.cycles:
                assert merged_from.get(cyc, ()) == maximal[cyc]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_level_views_match_the_rounds(data):
    L = draw_landscape(data, scale=7)
    generic = {
        (x, y): Energy(data.draw(st.integers(0, 20), label="seed-cost"), 7)
        for x in sorted(L.states)
        for y in sorted(L.neighbors(x))
    }
    for seed_costs in (None, generic):
        trace = run_decomposition(L, seed_costs=seed_costs)
        for level in trace.levels:
            assert set(level.cost) <= set(level.classes)
            assert set(level.renormalized) == set(level.cost)
            assert set(level.exit_height) == set(level.classes)
            for a in level.classes:
                row = level.cost.get(a, {})
                assert level.exit_height[a] == min(row.values(), key=_units, default=INFINITY)
                for b, value in row.items():
                    assert value.scale == 7
                    assert level.renormalized[a][b] == Energy(
                        value.units - level.exit_height[a].units, 7
                    )
            if level.index == 0:
                assert level.merge_height is None
            else:
                assert set(level.merge_height) == set(level.classes)
        (whole,) = trace.levels[-1].classes
        assert trace.levels[-1].exit_height[whole] is INFINITY
        assert trace.exit_heights[whole] is INFINITY


def test_rounds_build_no_energy(monkeypatch):
    """The rounds run on int units: no ``Energy`` is made until a view is read."""
    level = initial_level(load_landscape(grid_text(10, 1000, 3)))
    made = []
    original = Energy.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Energy, "__init__", counting)
    levels = [level]
    while not level.is_terminal:
        level, _, _ = advance(level)
        levels.append(level)
    assert len(levels) > 10
    assert made == []
    views = ("cost", "exit_height", "renormalized", "merge_height")
    assert not any(name in lvl.__dict__ for lvl in levels for name in views)
    assert levels[-1].exit_height[levels[-1].classes[0]] is INFINITY
    assert made == []
    levels[1].cost
    assert made


def _generic_seed(data, L, top=3):
    return {
        (x, y): E(data.draw(st.integers(0, top), label="seed-cost"))
        for x in sorted(L.states)
        for y in sorted(L.neighbors(x))
    }


def _advance_all(L, seed_costs=None):
    """Every level and every (blocks, minimal) pair, each round searched from
    every class by ``advance``."""
    level = initial_level(L, seed_costs)
    levels, steps = [level], []
    while not level.is_terminal:
        level, blocks, minimal = advance(level)
        levels.append(level)
        steps.append((blocks, minimal))
    return levels, steps


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_minimal_group_holds_a_class_of_the_round_before(data):
    # the locality that lets ``run_decomposition`` search only from the
    # classes the previous round formed; ``advance`` searches every class
    L = draw_landscape(data)
    for seed_costs in (None, _generic_seed(data, L)):
        levels, steps = _advance_all(L, seed_costs)
        fresh = set(levels[0].classes)
        for before, (_, minimal) in zip(levels, steps):
            assert minimal
            for block in minimal:
                parts = [cls for cls in before.classes if cls <= block]
                assert len(parts) > 1
                assert any(cls in fresh for cls in parts), sorted(block)
            fresh = set(minimal)


def _assert_rounds_match_advance(L, seed_costs=None):
    trace = run_decomposition(L, seed_costs=seed_costs)
    levels, steps = _advance_all(L, seed_costs)
    assert len(trace.levels) == len(levels)
    for got, want in zip(trace.levels, levels):
        assert got.index == want.index
        assert got.classes == want.classes
        assert got.cost_units == want.cost_units
        assert got.exit_units == want.exit_units
        assert got.merge_units == want.merge_units
        assert got == want  # whichever slot hosts each merge
    assert [(step.blocks, step.minimal) for step in trace.merges] == steps


def _reference_export(L, seed_costs=None):
    """The plain ``trace_to_dict`` document from ``advance``'s levels: each
    round's new classes, with the exit and merge heights of the level that
    has them first, in (size, sorted members) order."""
    levels, _ = _advance_all(L, seed_costs)
    heights = {}
    for level in levels:
        merge = level.merge_units or level.exit_units  # a singleton merges at its exit height
        for cls in level.classes:
            heights.setdefault(cls, (level.exit_units[cls], merge[cls]))
    return {
        "iterations": len(levels) - 1,
        "cycles": [
            {
                "members": list(set_key(cls)),
                "exit_height": str(from_units(heights[cls][0], L.scale)),
                "merge_height": str(from_units(heights[cls][1], L.scale)),
            }
            for cls in sorted(heights, key=lambda cls: (len(cls), set_key(cls)))
        ],
    }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_plain_export_matches_the_levels(data):
    L = draw_landscape(data)
    for seed_costs in (None, _generic_seed(data, L, top=6)):
        trace = run_decomposition(L, seed_costs=seed_costs)
        want = _reference_export(L, seed_costs)
        assert trace_to_dict(trace) == want


def test_run_and_export_hold_no_snapshots():
    # the run keeps its change records and the hierarchy, not a level per
    # round, and the plain export replays none: peaks under tracemalloc
    # are about 2.8 MB for the run and 7.8 MB with the export, against 47
    # and 51 MB when every round was stored as a level
    L = load_landscape(grid_text(40, 1000, 1))
    L.numbering()
    tracemalloc.start()
    try:
        trace = run_decomposition(L)
        run_peak = tracemalloc.get_traced_memory()[1]
        trace_to_dict(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run_peak < 15_000_000
    assert peak < 24_000_000


def test_records_hold_entry_edits_not_rows():
    # a round records each entry it set or dropped as (slot, destination,
    # value or None), and no row object: the run retains about 4.8 MB under
    # tracemalloc, against 19.9 MB when each round kept its new rows
    L = load_landscape(grid_text(60, 1000, 1))
    L.numbering()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_decomposition(L)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8_000_000
    for _, edits in trace.records.rounds:
        assert isinstance(edits, list)
        for slot, dst, value in edits:
            assert type(slot) is int and type(dst) is int
            assert value is None or type(value) is int


def test_advance_leaves_its_level_as_it_was():
    # the round edits its own copy of the rows, so the level it started from
    # reads as before, row objects included
    L = load_landscape(grid_text(8, 5, 2))
    level = initial_level(L)
    while not level.is_terminal:
        rows = {slot: dict(row) for slot, row in level.rows.items()}
        objects = dict(level.rows)
        after = advance(level)[0]
        assert level.rows == rows
        assert all(level.rows[slot] is row for slot, row in objects.items())
        level = after


def test_repr_and_equality_build_no_view(fig1):
    # a trace's repr shows its round count and scale, and two traces are
    # equal only when they are one; neither replays a level
    trace, other = run_decomposition(fig1), run_decomposition(fig1)
    assert repr(trace) == "DecompositionTrace(iterations=4, scale=1000000)"
    assert trace == trace and trace != other
    views = {"levels", "merges", "cycles", "exit_heights", "merge_heights", "_replayed"}
    for t in (trace, other):
        assert not views & {name for name, value in vars(t).items() if value is not None}


def test_verify_holds_no_snapshots():
    # verify applies the run's change records to one live round state and
    # replays no level: its peak under tracemalloc is about 3.8 MB, little
    # above the run's, against 48.8 MB when it replayed every level
    L = load_landscape(grid_text(40, 1000, 1))
    L.numbering()
    tracemalloc.start()
    try:
        assert verify_equivalence(L).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_merge_following_rounds_match_advance(data):
    L = draw_landscape(data)
    for seed_costs in (None, _generic_seed(data, L, top=6)):
        _assert_rounds_match_advance(L, seed_costs)


@pytest.mark.parametrize("name", ["fig1", "grid8-e2", "grid8-e1000"])
def test_merge_following_rounds_match_advance_on_the_golden_inputs(name):
    _assert_rounds_match_advance(load_landscape((DATA / f"{name}.json").read_text()))


@pytest.fixture
def block_reads(monkeypatch):
    """The merge steps whose ``blocks`` were read."""
    reads = []
    search = MergeStep.blocks.func

    def counting(step):
        reads.append(step)
        return search(step)

    monkeypatch.setattr(MergeStep, "blocks", property(counting))
    return reads


def test_graph_cycles_searches_blocks_only_for_iterations(block_reads, tmp_path):
    source = str(DATA / "grid8-e1000.json")
    assert main(["graph-cycles", source, "--out", str(tmp_path / "plain.json")]) == 0
    assert block_reads == []
    assert main(["graph-cycles", source, "--iterations", "--out", str(tmp_path / "full.json")]) == 0
    assert block_reads


def test_plain_graph_cycles_builds_no_snapshot(monkeypatch, capsys):
    # plain ``graph-cycles`` writes the hierarchy from the run's records: no
    # level, no class frozenset and no ``Energy`` height dict; with
    # ``--iterations`` the levels are replayed
    built = []
    level_init = PartitionLevel.__init__

    def counting_level(self, *args, **kwargs):
        built.append("level")
        level_init(self, *args, **kwargs)

    union = graphcycles._union

    def counting_union(*args):
        built.append("union")
        return union(*args)

    traces = []
    run = cli.run_decomposition

    def capture(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(PartitionLevel, "__init__", counting_level)
    monkeypatch.setattr(graphcycles, "_union", counting_union)
    monkeypatch.setattr(cli, "run_decomposition", capture)
    source = str(DATA / "grid8-e1000.json")
    assert main(["graph-cycles", source]) == 0
    assert capsys.readouterr().out == (DATA / "golden" / "grid8-e1000-graph-cycles.json").read_text()
    assert built == []
    views = ("levels", "merges", "cycles", "exit_heights", "merge_heights")
    assert all(vars(traces[0]).get(name) is None for name in views)
    assert main(["graph-cycles", source, "--iterations"]) == 0
    golden = (DATA / "golden" / "grid8-e1000-graph-cycles-iterations.json").read_text()
    assert capsys.readouterr().out == golden
    assert "level" in built and "union" in built


def test_verify_searches_no_blocks(block_reads):
    assert verify_equivalence(load_landscape((DATA / "grid8-e1000.json").read_text())).ok
    assert block_reads == []


def test_untouched_rows_are_shared_between_levels():
    # a slot's row is a new object only if the slot hosts a merge or its row
    # had an entry into an absorbed slot; every other row is shared
    trace = run_decomposition(load_landscape(grid_text(10, 1000, 3)))
    shared = copied = 0
    for before, after in zip(trace.levels, trace.levels[1:]):
        absorbed = before.members.keys() - after.members.keys()
        for slot, row in after.rows.items():
            if slot in after.formed:
                assert row is not before.rows[slot]
            elif absorbed.isdisjoint(before.rows[slot]):
                assert row is before.rows[slot]
                shared += 1
            else:
                assert row is not before.rows[slot]
                assert absorbed.isdisjoint(row)
                copied += 1
    assert shared and copied


def _toothed_staircase(steps):
    """A chain whose energies climb by one from a well at one end, with a
    high tooth on every chain state: the well's class absorbs one chain
    state per round while the teeth, all pointing into it, stay singletons."""
    chain = [f"c{i:03d}" for i in range(steps)]
    teeth = [f"t{i:03d}" for i in range(steps)]
    energies = {**{c: i for i, c in enumerate(chain)}, **{t: 10 * steps for t in teeth}}
    edges = list(zip(chain, chain[1:])) + list(zip(chain, teeth))
    return make_landscape(energies, edges)


def test_a_growing_class_keeps_its_slot_and_in_edges():
    # rows relabelled per round stay bounded as the absorbing class's
    # boundary grows: only rows into the absorbed chain state change
    for steps in (10, 20, 40):
        trace = run_decomposition(_toothed_staircase(steps))
        assert trace.iterations >= steps - 1
        for before, after in zip(trace.levels, trace.levels[1:]):
            relabelled = [
                slot
                for slot, row in after.rows.items()
                if slot not in after.formed and row is not before.rows[slot]
            ]
            assert len(relabelled) <= 2, (steps, after.index)


def _reference_rounds(L, seed_costs=None):
    """Every level as (classes, cost, exit, merge), straight from steps 1-4
    of the module docstring on frozenset-keyed rows, and each round's
    zero-cost groups' member unions in class order: each round re-maps every
    row, and the groups come from pairwise reachability."""
    costs = metropolis_seed(L) if seed_costs is None else seed_costs
    cost = {}
    for (x, y), value in costs.items():
        if not value.is_infinite:
            cost.setdefault(frozenset([x]), {})[frozenset([y])] = value.units
    classes = {frozenset([s]) for s in L.states}
    merge = None
    levels, blocks = [], []
    while True:
        exit_ = {c: min(cost.get(c, {}).values(), default=math.inf) for c in classes}
        levels.append((classes, cost, exit_, merge))
        if len(classes) == 1:
            return levels, blocks
        zero = {c: [d for d, v in cost.get(c, {}).items() if v == exit_[c]] for c in classes}
        reaches = {c: reach([c], zero.__getitem__) for c in classes}
        group = {c: frozenset(d for d in reaches[c] if c in reaches[d]) for c in classes}
        unions = (frozenset().union(*g) for g in set(group.values()))
        blocks.append(tuple(sorted(unions, key=set_key)))
        container = {}
        for g in set(group.values()):
            if all(d in g for c in g for d in zero[c]):  # no zero-cost escape
                for c in g:
                    container[c] = frozenset().union(*g)
        merge = {c: exit_[c] for c in classes if c not in container}
        for c, block in container.items():
            merge[block] = max(merge.get(block, 0), exit_[c])
        lifted = {}
        for src, row in cost.items():
            new_src = container.get(src, src)
            lift = merge[new_src] - exit_[src] if src in container else 0
            for dst, v in row.items():
                new_dst = container.get(dst, dst)
                if new_dst != new_src and v + lift < lifted.get(new_src, {}).get(new_dst, math.inf):
                    lifted.setdefault(new_src, {})[new_dst] = v + lift
        classes, cost = set(merge), lifted


def _assert_rounds_match_reference(L, seed_costs=None):
    trace = run_decomposition(L, seed_costs=seed_costs)
    want, blocks = _reference_rounds(L, seed_costs)
    assert len(trace.levels) == len(want)
    for level, (classes, cost, exit_, merge) in zip(trace.levels, want):
        # a living row holds an entry exactly where its destination's row
        # holds one back, which each round relies on
        rows = level.rows
        for s in level.members:
            for d in rows.get(s, ()):
                assert d in level.members and s in rows[d], (level.index, s, d)
        assert level.classes == tuple(sorted(classes, key=set_key))
        assert level.cost_units == cost
        assert level.exit_units == exit_
        assert level.merge_units == merge
    assert [step.blocks for step in trace.merges] == blocks


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rounds_match_the_reference_round(data):
    L = draw_landscape(data)
    for seed_costs in (None, _generic_seed(data, L, top=6)):
        _assert_rounds_match_reference(L, seed_costs)


@pytest.mark.parametrize("name", ["fig1", "grid8-e2", "grid8-e1000"])
def test_rounds_match_the_reference_round_on_the_golden_inputs(name):
    _assert_rounds_match_reference(load_landscape((DATA / f"{name}.json").read_text()))


def test_every_exported_name_resolves():
    for name in basincycles.__all__:
        assert hasattr(basincycles, name), name
