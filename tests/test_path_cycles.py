"""Path-cycle predicates, the sweep enumeration, and the cycle tree."""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from basincycles import (
    Energy,
    INFINITY,
    brute_force_path_cycles,
    depth,
    enumerate_path_cycles,
    ground,
    is_path_cycle,
    load_landscape,
    make_landscape,
    resistance_height,
    sublevel_component,
)
from basincycles.energy import from_units
from basincycles.errors import LevelBelowStart, NotACycle
from basincycles.landscape import dumps_json
from basincycles.pathcycles import boundary_floor, set_key, tree_to_dict, tree_to_dot

from conftest import (
    DATA,
    FIG1_PATH,
    components,
    draw_landscape,
    grid_text,
    make_fig1_shuffled,
    reference_tree,
)

FIG1_CYCLES = (
    [frozenset(s) for s in "abcdefghijk"]
    + [
        frozenset("cdef"),
        frozenset("ij"),
        frozenset("hij"),
        frozenset("cdefghij"),
        frozenset("abcdefghijk"),
    ]
)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sweep_matches_oracle(data):
    L = draw_landscape(data)
    assert enumerate_path_cycles(L).member_sets() == brute_force_path_cycles(L)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sweep_tree_matches_definitions(data):
    # the links and quantities recorded during the sweep against their
    # definitions: parent = smallest strict superset among the oracle's
    # cycles, and each quantity recomputed from the members
    L = draw_landscape(data)
    oracle = brute_force_path_cycles(L)
    tree = enumerate_path_cycles(L)
    for node in tree.nodes:
        supersets = [c for c in oracle if node.members < c]
        if supersets:
            assert node.parent.members == min(supersets, key=len)
            assert node in node.parent.children
        else:
            assert node.parent is None and node is tree.root
        keys = [set_key(child.members) for child in node.children]
        assert keys == sorted(keys)
        floor = boundary_floor(L, node.members)
        low = L.energy(min(node.members, key=L.units))
        high = L.energy(max(node.members, key=L.units))
        assert (node.low, node.high, node.floor) == (low.units, high.units, floor.units)
        assert node.depth == from_units(floor.units - low.units, L.scale)
        assert node.resistance == Energy(high.units - low.units, L.scale)
        assert node.ground == ground(L, node.members)
        assert node.nontrivial == (len(node.members) > 1 or high.units < floor.units)


def _assert_matches_reference_tree(L):
    tree = enumerate_path_cycles(L)
    expected = reference_tree(L)
    assert len(tree.nodes) == len(expected)
    index = {node: i for i, node in enumerate(tree.nodes)}
    for node, ref in zip(tree.nodes, expected):
        assert node.members == ref.members
        assert node.ground == ref.ground
        assert (node.low, node.high, node.floor) == (ref.low, ref.high, ref.floor)
        assert node.nontrivial == ref.nontrivial
        assert (None if node.parent is None else index[node.parent]) == ref.parent
        assert [index[child] for child in node.children] == ref.children
    assert index[tree.root] == len(expected) - 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_matches_the_reference_tree(data):
    _assert_matches_reference_tree(draw_landscape(data))


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(lambda: FIG1_PATH.read_text(encoding="utf-8"), id="fig1"),
        pytest.param(lambda: (DATA / "grid8-e2.json").read_text(encoding="utf-8"), id="grid8-e2"),
        pytest.param(lambda: (DATA / "grid8-e1000.json").read_text(encoding="utf-8"), id="grid8-e1000"),
        *(pytest.param(lambda s=s: grid_text(12, 2, s), id=f"grid12-e2-s{s}") for s in (1, 2, 3)),
    ],
)
def test_fixed_inputs_match_the_reference_tree(text):
    _assert_matches_reference_tree(load_landscape(text()))


def test_sweep_retains_memory_linear_in_the_states():
    # a 40 x 40 grid with energies 0..1000 has about 2,560 nodes that hold
    # about 95,000 members together; a tree with a member set per node
    # retained 24 MB here, the int records and the numbering about 1 MB
    L = load_landscape(grid_text(40, 1000, 1))
    tracemalloc.start()
    try:
        tree = enumerate_path_cycles(L)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree) == 2559
    assert retained < 5_000_000


def test_is_path_cycle(fig1):
    assert is_path_cycle(fig1, {"c", "d", "e", "f"})
    assert not is_path_cycle(fig1, {"d", "e", "f"})
    assert is_path_cycle(fig1, {"k"})
    assert not is_path_cycle(fig1, {"a", "c"})  # disconnected


def test_sublevel_component(fig1):
    assert sublevel_component(fig1, "e", 2) == frozenset("cdef")
    assert sublevel_component(fig1, "i", 0) == {"i"}
    assert sublevel_component(fig1, "i", 5) == frozenset("abcdefghijk")
    # cutoffs between landscape levels act like the level below them
    assert sublevel_component(fig1, "i", "0.5") == {"i"}
    assert sublevel_component(fig1, "e", "2.9") == frozenset("cdef")
    assert sublevel_component(fig1, "b", "inf") == frozenset("abcdefghijk")
    with pytest.raises(LevelBelowStart):
        sublevel_component(fig1, "b", 2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sublevel_component_is_the_component_below_the_cutoff(data):
    L = draw_landscape(data)
    states = sorted(L.states)
    for _ in range(5):
        x = data.draw(st.sampled_from(states))
        low = L.energy(x).units // L.scale
        cutoff = data.draw(st.integers(low, 7) | st.integers(low, 6).map(lambda c: f"{c}.5"))
        level = L.energy_value(cutoff)
        comp = sublevel_component(L, x, cutoff)
        assert x in comp
        assert all(L.energy(y).units <= level.units for y in comp)
        assert len(components(L, comp)) == 1
        for y in comp:
            assert all(z in comp or L.energy(z).units > level.units for z in L.neighbors(y))


def test_fig1_enumeration(fig1):
    tree = enumerate_path_cycles(fig1)
    assert tree.member_sets() == set(FIG1_CYCLES)
    assert len(tree) == 16
    assert tree.root.members == frozenset("abcdefghijk")


def test_two_state_enumeration(two_state):
    tree = enumerate_path_cycles(two_state)
    assert tree.member_sets() == {frozenset("x"), frozenset("y"), frozenset("xy")}


def test_depth_and_resistance(fig1):
    assert depth(fig1, {"i", "j"}) == Energy.from_int(3)
    assert resistance_height(fig1, {"i", "j"}) == Energy.from_int(1)
    assert depth(fig1, {"h", "i", "j"}) == Energy.from_int(4)
    assert resistance_height(fig1, {"h", "i", "j"}) == Energy.from_int(3)
    assert resistance_height(fig1, {"g"}) == Energy.from_int(0)
    assert depth(fig1, frozenset("abcdefghijk")) is INFINITY
    with pytest.raises(NotACycle):
        depth(fig1, {"d", "e", "f"})
    with pytest.raises(NotACycle):
        resistance_height(fig1, {"d", "e", "f"})


def test_tree_structure(fig1):
    tree = enumerate_path_cycles(fig1)
    assert tree.node({"i", "j"}).parent.members == frozenset("hij")
    assert tree.node({"c"}).parent.members == frozenset("cdef")
    assert tree.node({"h"}).parent.members == frozenset("hij")
    root_children = {frozenset(c.members) for c in tree.root.children}
    assert root_children == {
        frozenset("a"),
        frozenset("b"),
        frozenset("k"),
        frozenset("cdefghij"),
    }
    assert tree.root.parent is None
    for node in tree.nodes:
        kids = node.children
        for a_i in range(len(kids)):
            for b_i in range(a_i + 1, len(kids)):
                assert not (kids[a_i].members & kids[b_i].members)
        if kids:
            assert frozenset().union(*(c.members for c in kids)) <= node.members


def test_singleton_trivial_flags(fig1):
    tree = enumerate_path_cycles(fig1)
    # a is a local minimum (its only neighbor is above), so its singleton
    # is a nontrivial cycle; b sits on a peak, so its singleton is trivial
    assert tree.node({"a"}).nontrivial
    assert not tree.node({"b"}).nontrivial
    assert tree.node({"i"}).nontrivial
    assert tree.node({"e"}).nontrivial is False  # flat neighbor at equal energy


def test_resistance_below_depth_on_nontrivial():
    # the defining strict inequality, relative to the ground
    for seed in range(40):
        L = make_landscape(
            *_random_chainlike(seed)
        )
        tree = enumerate_path_cycles(L)
        for node in tree.nodes:
            if node.nontrivial:
                assert node.resistance.units < node.depth.units, sorted(node.members)


def _random_chainlike(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    ids = [f"s{i}" for i in range(n)]
    edges = {(ids[rng.randrange(i)], ids[i]) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(ids, 2)
        edges.add((min(a, b), max(a, b)))
    return {s: rng.randint(0, 5) for s in ids}, sorted(edges)


def test_nesting_invariant(fig1):
    sets = sorted(enumerate_path_cycles(fig1).member_sets(), key=len)
    for i, small in enumerate(sets):
        for big in sets[i + 1 :]:
            overlap = small & big
            assert not overlap or small <= big or big <= small


def test_disjoint_nontrivial_cycles_not_connected(fig1):
    tree = enumerate_path_cycles(fig1)
    nontrivial = [n.members for n in tree.nodes if len(n.members) > 1]
    for a in nontrivial:
        for b in nontrivial:
            if a & b:
                continue
            touching = any(fig1.rate(x, y) > 0 for x in a for y in b)
            assert not touching


def test_level_set_characterization(fig1):
    tree = enumerate_path_cycles(fig1)
    for node in tree.nodes:
        if len(node.members) == 1:
            continue
        top = fig1.energy(max(node.members, key=fig1.units))
        for x in node.members:
            if fig1.energy(x) == top:
                assert sublevel_component(fig1, x, top) == node.members
        for x in node.members:
            assert sublevel_component(fig1, x, fig1.energy(x)) <= node.members


def test_node_count_bound():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        ids = [f"s{i}" for i in range(n)]
        edges = {(ids[rng.randrange(i)], ids[i]) for i in range(1, n)}
        L = make_landscape({s: rng.randint(0, 4) for s in ids}, sorted(edges))
        tree = enumerate_path_cycles(L)
        assert len(tree) <= 2 * n - 1
        assert all(frozenset((s,)) in tree.member_sets() for s in ids)


def test_single_state_tree():
    L = make_landscape({"only": 7}, [])
    tree = enumerate_path_cycles(L)
    assert len(tree) == 1
    assert tree.root.members == {"only"}
    assert tree.root.depth is INFINITY


def test_enumeration_order_independent(fig1):
    base = tree_to_dict(enumerate_path_cycles(fig1))
    for seed in (3, 17, 23):
        shuffled = make_fig1_shuffled(random.Random(seed))
        assert tree_to_dict(enumerate_path_cycles(shuffled)) == base


def test_exports(fig1):
    tree = enumerate_path_cycles(fig1)
    doc = json.loads(dumps_json(tree_to_dict(tree)))  # the document as written
    assert len(doc["nodes"]) == 16
    by_members = {tuple(n["members"]): n for n in doc["nodes"]}
    ij = by_members[("i", "j")]
    assert ij["gamma"] == "3" and ij["gamma_tilde"] == "1"
    assert ij["ground"] == ["i"]
    assert doc["nodes"][by_members[("i", "j")]["parent_index"]]["members"] == [
        "h",
        "i",
        "j",
    ]
    root = by_members[tuple(sorted("abcdefghijk"))]
    assert root["gamma"] == "inf" and root["parent_index"] is None

    dot = "".join(tree_to_dot(tree))
    assert dot.startswith("digraph")
    assert dot.count("->") == 15  # tree edges
