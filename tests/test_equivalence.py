"""Cross-validation of the two decompositions against each other and the
exhaustive oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from basincycles import (
    Energy,
    brute_force_path_cycles,
    enumerate_path_cycles,
    load_landscape,
    make_landscape,
    random_landscape,
    run_decomposition,
    verify_equivalence,
)
from basincycles import equivalence
from basincycles.equivalence import report_to_dict
from basincycles.errors import TooLarge
from basincycles.graphcycles import level_to_dict

from conftest import (
    DATA,
    FIG1_PATH,
    _bump_cost,
    _bump_exit,
    _bump_merge,
    _drop_from_last,
    _fresh_with_single,
    _group,
    floor_units,
    grid_text,
    is_cycle,
    ising_torus,
    retrace,
)

E = Energy.from_int


def test_fig1_report(fig1):
    report = verify_equivalence(fig1)
    assert report.set_equal
    assert report.ok
    assert report.cycle_count == 16
    assert report.he_violations == []
    assert report.hm_violations == []
    assert len(report.conditions) == 5  # iterations 0..4
    assert all(r.ok for r in report.conditions)


def test_fig1_exit_height_is_boundary_depth(fig1):
    trace = run_decomposition(fig1)
    big = frozenset("cdefghij")
    # boundary of the big cycle is {b, k}; its floor sits 5 above the ground
    assert trace.exit_heights[big] == E(5)
    assert min(fig1.energy("b").units, fig1.energy("k").units) - min(map(fig1.units, big)) == E(5).units


def test_sweep_and_verifier_build_no_energy(monkeypatch):
    """Heights stay int units: the sweep, the decomposition's run and
    ``verify`` on an honest trace build no ``Energy``."""
    L = load_landscape((DATA / "grid8-e1000.json").read_text(encoding="utf-8"))
    made = []
    original = Energy.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Energy, "__init__", counting)
    enumerate_path_cycles(L)
    assert made == []
    run_decomposition(L)
    assert made == []
    assert verify_equivalence(L).ok
    assert made == []


def test_single_state_trivially_equal():
    L = make_landscape({"w": 0}, [])
    report = verify_equivalence(L)
    assert report.ok and report.cycle_count == 1


def test_brute_force_fig1(fig1):
    sets = brute_force_path_cycles(fig1)
    assert sets == enumerate_path_cycles(fig1).member_sets()
    assert len(sets) == 16


def test_brute_force_two_state(two_state):
    assert brute_force_path_cycles(two_state) == {
        frozenset("x"),
        frozenset("y"),
        frozenset("xy"),
    }


def test_brute_force_guard():
    ids = {f"s{i}": 0 for i in range(21)}
    edges = [(f"s{i}", f"s{i+1}") for i in range(20)]
    big = make_landscape(ids, edges)
    with pytest.raises(TooLarge):
        brute_force_path_cycles(big)


def test_flat_landscape_equivalence():
    L = make_landscape({s: 2 for s in "pqrst"}, [("p", "q"), ("q", "r"), ("r", "s"), ("s", "t")])
    report = verify_equivalence(L)
    assert report.ok
    # only the singletons and the whole space: a flat chain has no inner cycle
    assert report.cycle_count == 6


def test_tie_rich_equivalence():
    # two equal-depth wells separated by a plateau at the common top
    L = make_landscape(
        {"u": 0, "v": 3, "w": 3, "x": 0, "y": 1},
        [("u", "v"), ("v", "w"), ("w", "x"), ("x", "y")],
    )
    report = verify_equivalence(L)
    assert report.ok


def test_random_corpus_small():
    for i in range(200):
        L = random_landscape(seed=1_000_000 + i)
        report = verify_equivalence(L)
        assert report.ok, (i, report_to_dict(report))


def _star(rng):
    # the hub sits mid-range, so some leaves are wells and some are not
    leaves = [f"l{i:02d}" for i in range(50)]
    energies = {"hub": 3, **{x: rng.randint(0, 6) for x in leaves}}
    return make_landscape(energies, [("hub", x) for x in leaves])


def _clique(rng):
    ids = [f"k{i:02d}" for i in range(12)]
    edges = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :]]
    return make_landscape({x: rng.randint(0, 6) for x in ids}, edges)


def _chain(rng):
    ids = [f"c{i:03d}" for i in range(200)]
    return make_landscape({x: rng.randint(0, 1000) for x in ids}, list(zip(ids, ids[1:])))


@pytest.mark.parametrize("family", [_star, _clique, _chain], ids=["star", "clique", "chain"])
def test_structured_family(family):
    L = family(random.Random(5))
    tree = enumerate_path_cycles(L)
    report = verify_equivalence(L)
    assert report.ok, report_to_dict(report)
    assert report.cycle_count == len(tree)
    # the tree that verify reads, against the definitions verify does not compute
    for node in tree.nodes:
        assert is_cycle(L, node.members)
        floor = floor_units(L, node.members)
        assert max(node.depth.units, 0) == max(floor - min(map(L.units, node.members)), 0)


@pytest.mark.parametrize("side", [30, 100])
def test_plateau_grid(side):
    L = load_landscape(grid_text(side, 2, seed=side))
    report = verify_equivalence(L)
    assert report.ok, report_to_dict(report)
    assert report.cycle_count == len(enumerate_path_cycles(L))


def test_report_dict_shape(fig1):
    doc = report_to_dict(verify_equivalence(fig1))
    assert doc["ok"] and doc["set_equal"] and doc["cycles"] == 16
    assert doc["he_violations"] == [] and doc["hm_violations"] == []
    assert [c["iteration"] for c in doc["conditions"]] == [0, 1, 2, 3, 4]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_equivalence_random(data):
    n = data.draw(st.integers(2, 8))
    energies = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
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
    report = verify_equivalence(L)
    assert report.ok, report_to_dict(report)
    # strict separation of the two height functionals on non-singletons
    trace = run_decomposition(L)
    for cyc in trace.cycles:
        if len(cyc) > 1 and cyc != frozenset(ids):
            assert trace.merge_heights[cyc].units < trace.exit_heights[cyc].units


def test_generator_parameters():
    for seed in range(30):
        L = random_landscape(seed=seed, min_states=3, max_states=5, max_energy=2)
        assert 3 <= L.n <= 5
        assert all(L.energy(s).units <= E(2).units for s in L.states)


# -- fault detection: verify must notice a tampered trace ------------------------

FAULT_INPUTS = [FIG1_PATH, DATA / "grid8-e2.json"]
RECORDS = ("classes_are_cycles", "boundary_costs_ok", "exit_heights_ok", "merge_heights_ok")


def _verify_tampered(monkeypatch, path, tamper):
    """Run verify on the landscape at ``path`` with ``tamper(records, level,
    big, single)`` applied to the records of the trace it computes, for the
    round's level, class slot and singleton slot ``_fresh_with_single``
    picks.  Returns the report, that round's index and its class."""
    original = equivalence.run_decomposition
    picked = []

    def tampered(landscape, *args, **kwargs):
        def edit(trace):
            level, big, single = _fresh_with_single(trace)
            picked.append((level.index, level.members[big]))
            tamper(trace.records, level, big, single)

        return retrace(original(landscape, *args, **kwargs), edit)

    monkeypatch.setattr(equivalence, "run_decomposition", tampered)
    report = verify_equivalence(load_landscape(path.read_text()))
    assert not report.ok
    return (report, *picked[0])


@pytest.mark.parametrize("path", FAULT_INPUTS, ids=lambda p: p.name)
@pytest.mark.parametrize(
    "tamper, record",
    [
        (_bump_merge, "merge_heights_ok"),
        (_bump_cost, "boundary_costs_ok"),
        (_bump_exit, "exit_heights_ok"),
    ],
    ids=["merge", "cost", "exit"],
)
def test_tampered_round_fails_its_condition(monkeypatch, path, tamper, record):
    report, index, big = _verify_tampered(monkeypatch, path, tamper)
    # round 1 forms {c,d,e,f} on fig1 and {r0c0,r1c0} on grid8-e2
    assert index == 1 and len(big) > 1
    assert [name for name in RECORDS if not getattr(report.conditions[index], name)] == [record]
    assert not any(not r.ok for r in report.conditions[:index])
    assert report.set_equal


@pytest.mark.parametrize("path", FAULT_INPUTS, ids=lambda p: p.name)
def test_tampered_trace_heights_are_violations(monkeypatch, path):
    def bump_heights(records, level, big, single):
        v = _group(records, level.index, big)[2]
        records.exit[v] += 1
        records.merge[v] += 1

    report, _, big = _verify_tampered(monkeypatch, path, bump_heights)
    assert [c for c, _, _ in report.he_violations] == [big]
    assert [c for c, _, _ in report.hm_violations] == [big]
    assert all(record.ok for record in report.conditions)


@pytest.mark.parametrize("path, state", [(FIG1_PATH, "a"), (DATA / "grid8-e2.json", "r7c0")], ids=["fig1", "grid8-e2"])
def test_non_cycle_class_is_graph_only(monkeypatch, path, state):
    # the last round forms the space less one state, which is no path cycle:
    # it is reported, and the checks that need its tree node pass over it
    report, _, _ = _verify_tampered(monkeypatch, path, _drop_from_last(state))
    space = frozenset(load_landscape(path.read_text()).states)
    assert report.graph_only == [space - {state}] and report.path_only == [space]
    assert report.he_violations == [] and report.hm_violations == []
    record = report.conditions[-1]
    assert not record.classes_are_cycles
    assert record.boundary_costs_ok and record.exit_heights_ok and record.merge_heights_ok
    assert sum(not r.ok for r in report.conditions) == 1


def test_verify_reads_the_rounds_in_units(monkeypatch):
    # verify compares the int units each round stores on its slots, so it
    # builds none of the rounds' Energy views and no view keyed by class
    original = equivalence.run_decomposition
    traces = []

    def capture(landscape, *args, **kwargs):
        traces.append(original(landscape, *args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(equivalence, "run_decomposition", capture)
    assert verify_equivalence(load_landscape((DATA / "grid8-e1000.json").read_text())).ok
    views = {"cost", "exit_height", "renormalized", "merge_height"}
    views |= {"classes", "cost_units", "exit_units", "merge_units"}
    for level in traces[0].levels:
        assert not views & vars(level).keys(), level.index


def test_a_class_of_non_cycles_resolves_by_its_leaf_run(fig1):
    # {d,e}, {f,g}, {c,d} and {e,f} are no path cycles.  The leaves of
    # {d,e,f,g} make a run, but the node of four leaves above d is {c,d,e,f}
    tree = enumerate_path_cycles(fig1)
    index = fig1.numbering()[1]
    n = fig1.n
    parts = {n + k: [index[x] for x in pair] for k, pair in enumerate(("de", "fg", "cd", "ef"))}
    node = list(range(n)) + [None] * len(parts)
    assert equivalence._resolve([n, n + 1], 4, node, parts, tree) is None
    v = equivalence._resolve([n + 2, n + 3], 4, node, parts, tree)
    assert {tree.names[i] for i in tree.leaves[tree.lo[v] : tree.hi[v]]} == set("cdef")


def test_verify_replays_no_level(monkeypatch):
    # verify reads the run's change records: it builds none of the trace's
    # replayed views and patches no level
    from basincycles import graphcycles

    original = equivalence.run_decomposition
    traces, calls = [], []

    def capture(landscape, *args, **kwargs):
        traces.append(original(landscape, *args, **kwargs))
        return traces[-1]

    def counted(name):
        function = getattr(graphcycles, name)

        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(equivalence, "run_decomposition", capture)
    for name in ("_patch", "_union"):
        monkeypatch.setattr(graphcycles, name, counted(name))
    assert verify_equivalence(load_landscape((DATA / "grid8-e1000.json").read_text())).ok
    built = {name for name, value in vars(traces[0]).items() if value is not None}
    assert not built & {"levels", "cycles", "exit_heights", "merge_heights", "_replayed"}
    assert calls == []


def test_verify_leaves_the_records_as_they_were(monkeypatch):
    # verify applies the edits to its own copy of round 0's rows, so the
    # levels replayed from the same records after it read as before it
    L = load_landscape((DATA / "grid8-e1000.json").read_text())
    trace = run_decomposition(L)

    def replayed():
        return [level_to_dict(level) for level in retrace(trace, lambda _: None).levels]

    before = replayed()
    monkeypatch.setattr(equivalence, "run_decomposition", lambda landscape: trace)
    assert verify_equivalence(L).ok
    assert replayed() == before


def test_verify_builds_no_tree_views(monkeypatch):
    # verify resolves classes to node ids on the tree's int records, so it
    # builds no CycleNode, no member index and no boundary by member set
    from basincycles import landscape, pathcycles

    original = equivalence.enumerate_path_cycles
    trees = []

    def capture(landscape, *args, **kwargs):
        trees.append(original(landscape, *args, **kwargs))
        return trees[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("exterior_boundary called")

    monkeypatch.setattr(equivalence, "enumerate_path_cycles", capture)
    for module in (landscape, pathcycles, equivalence):
        monkeypatch.setattr(module, "exterior_boundary", forbidden, raising=False)
    assert verify_equivalence(load_landscape((DATA / "grid8-e1000.json").read_text())).ok
    assert trees[0]._nodes is None and trees[0]._by_members is None


def _barrier_units(landscape, state):
    """V(state) in int units: ``high`` of the smallest node of the sweep tree
    that holds ``state`` and a state below it, less the state's energy."""
    tree = enumerate_path_cycles(landscape)
    leaf = landscape.numbering()[1][state]
    v = leaf
    while tree.low[v] >= tree.low[leaf]:
        v = tree.parent[v]
    return tree.high[v] - tree.low[leaf]


def test_ising_3x3_torus():
    """Ising on the 3 x 3 torus (512 states), J = 1 and h = 3/2: V(all minus)
    is 3, twelve units at scale 4.

    Flipping a set A of spins of the all-minus state costs J|dA| - h|A|,
    with dA the bonds from A to the rest.  A state with one plus spin sits
    4 - 3/2 = 5/2 above all-minus.  One with two sits at least 6 - 3 = 3
    above it, the domino, since two spins share at most one bond.  A flip
    changes the count of plus spins by one, so every path down to a lower
    state passes a state with two: V >= 3.  The path one spin (5/2),
    domino (3), the wrapped row of three (6 - 9/2 = 3/2), a spin of the
    next row (8 - 6 = 2), a second (8 - 15/2 = 1/2), that row closed
    (6 - 9 = -3) never passes 3, so V = 3.

    In infinite volume the critical droplet is the domino with a
    protuberance, 8 - 9/2 = 7/2, as Gamma = 4 J lc - h (lc^2 - lc + 1) with
    lc = ceil(2J/h) = 2 gives.  The torus is only 3 wide, so the third spin
    closes a wrapped row instead, and the barrier is the domino's 3: a
    finite-size effect."""
    L = ising_torus(3, 3)
    assert verify_equivalence(L).ok
    assert _barrier_units(L, "-" * 9) == 12


def test_ising_3x4_torus():
    """Ising on the 3 x 4 torus (4,096 states), J = 1 and h = 3/2: V(all
    minus) is 3, twelve units at scale 4.

    Flipping a set A of spins of the all-minus state costs J|dA| - h|A|.
    As on the 3 x 3 torus, every state with one plus spin sits at 5/2 and
    every state with two at least at the domino's 6 - 3 = 3, and a flip
    changes the count of plus spins by one, so V >= 3.  The columns are 3
    long and wrap: one spin (5/2), a vertical domino (3), the closed column
    (6 - 9/2 = 3/2), a spin of the next column (8 - 6 = 2), a second
    (8 - 15/2 = 1/2), the 3 x 2 band, whose boundary is the 6 bonds on its
    two sides (6 - 9 = -3), never passes 3, so V = 3.

    Infinite volume gives Gamma = 7/2, the domino with a protuberance
    (lc = ceil(2J/h) = 2); here the third spin closes a column of 3 at 3/2
    instead, and the barrier is the domino's 3: the finite-size effect of
    the 3 x 3 torus, along the short direction."""
    L = ising_torus(3, 4)
    assert verify_equivalence(L).ok
    assert _barrier_units(L, "-" * 12) == 12
