"""The verifier against ``conftest.reference_verify``, the member-set verifier
it replaced: the same report, entry for entry, on honest traces and on
tampered ones."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from basincycles import equivalence, graphcycles, load_landscape, random_landscape, verify_equivalence
from basincycles.equivalence import report_to_dict
from basincycles.landscape import exterior_boundary

from conftest import (
    DATA,
    FIG1_PATH,
    _bump_cost,
    _bump_exit,
    _bump_group,
    _bump_merge,
    _drop_from_last,
    _fresh_with_single,
    draw_landscape,
    reference_verify,
    retrace,
)

# ``fuzz`` builds landscape i of a campaign from this seed
FUZZ_SEED_STRIDE = 1_000_003
FIXTURES = ["fig1.json", "grid8-e2.json", "grid8-e1000.json"]
BAD = {FIG1_PATH: "a", DATA / "grid8-e2.json": "r7c0"}  # a state dropped from the last group


def _same_report(landscape) -> dict:
    got = report_to_dict(verify_equivalence(landscape))
    assert got == report_to_dict(reference_verify(landscape))
    return got


def _tamper(monkeypatch, edit):
    """Hand each verifier a fresh trace over records that ``edit(landscape,
    trace)`` edited (``retrace``).  The honest run is read from
    ``graphcycles``, which no test patches, so a second tamper replaces the
    first instead of stacking on it."""

    def tampered(landscape, *args, **kwargs):
        trace = graphcycles.run_decomposition(landscape, *args, **kwargs)
        return retrace(trace, lambda trace: edit(landscape, trace))

    monkeypatch.setattr(equivalence, "run_decomposition", tampered)


def _fixture(name):
    return load_landscape((DATA / name).read_text())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_the_reference_on_drawn_landscapes(data):
    _same_report(draw_landscape(data))


def test_matches_the_reference_on_a_fuzz_campaign():
    # the 300 landscapes of ``fuzz --seed 10 --count 300``
    for i in range(300):
        _same_report(random_landscape(seed=10 * FUZZ_SEED_STRIDE + i))


@pytest.mark.parametrize("name", FIXTURES)
def test_matches_the_reference_on_the_fixtures(name):
    assert _same_report(_fixture(name))["ok"]


@pytest.mark.parametrize("path", list(BAD), ids=lambda p: p.name)
@pytest.mark.parametrize(
    "tamper", [_bump_merge, _bump_cost, _bump_exit, None], ids=["merge", "cost", "exit", "bad"]
)
def test_matches_the_reference_on_a_tampered_trace(monkeypatch, path, tamper):
    tamper = tamper or _drop_from_last(BAD[path])

    def edit(landscape, trace):
        level, big, single = _fresh_with_single(trace)
        tamper(trace.records, level, big, single)

    _tamper(monkeypatch, edit)
    assert not _same_report(load_landscape(path.read_text()))["ok"]


def _scramble(seed):
    """A tamper that makes one to three random edits to the records: a cost
    they hold, in a round-0 row or set by one round's edit, bumped or
    dropped (so in every round until an edit sets it again), one more edit
    in a round bumping a cost of a live row, a group's lift, exit or merge
    height bumped, a class's exit or merge height bumped, or a slot dropped
    from a group or moved to another group of its round.  A slot leaves
    only a group of three or more, so every group still joins two live
    slots.  A fresh ``random.Random(seed)`` per call gives each verifier
    the same edits."""

    def scramble(landscape, trace):
        levels, records = trace.levels, trace.records  # the honest levels, read first
        rng = random.Random(seed)
        for _ in range(rng.randint(1, 3)):
            edit = rng.randrange(9)
            index = rng.randrange(1, len(records.rounds) + 1)
            groups, edits = records.rounds[index - 1]
            if edit < 2:  # a cost the records hold: a round-0 entry or a set edit
                held = [(row, dst) for row in records.start[0].values() for dst in sorted(row)]
                held += [(edits, k) for k, (_, _, value) in enumerate(edits) if value is not None]
                if not held:
                    continue
                where, key = rng.choice(held)
                if where is edits:
                    slot, dst, value = edits[key]
                    edits[key] = slot, dst, (value + rng.choice((-1, 1)) if edit == 0 else None)
                elif edit == 0:
                    where[key] += rng.choice((-1, 1))
                else:
                    del where[key]
            elif edit == 2:  # a live row of the round
                slot = rng.choice([slot for slot, row in levels[index].rows.items() if row] or [None])
                if slot is None:
                    continue
                dst = rng.choice(sorted(levels[index].rows[slot]))
                edits.append((slot, dst, levels[index].rows[slot][dst] + 1))
            elif edit < 6:  # 3 the host's lift, 4 its exit, 5 its merge height
                k = rng.randrange(len(groups))
                group = list(groups[k])
                group[edit - 1] += rng.choice((-1, 1))
                groups[k] = tuple(group)
            elif edit == 6:
                heights = rng.choice((records.exit, records.merge))
                heights[rng.randrange(len(heights))] += 1
            else:  # 7 drops a slot from a group, 8 moves it to another group
                big = [k for k, group in enumerate(groups) if len(group[1]) > 2]
                if not big or (edit == 8 and len(groups) < 2):
                    continue
                k = rng.choice(big)
                host, slots, *heights = groups[k]
                slot = rng.choice([s for s in slots if s != host])
                groups[k] = (host, [s for s in slots if s != slot], *heights)
                if edit == 8:
                    j = rng.choice([j for j in range(len(groups)) if j != k])
                    host, slots, *heights = groups[j]
                    groups[j] = (host, [*slots, slot], *heights)

    return scramble


@pytest.mark.parametrize("first", range(0, 300, 50))
def test_matches_the_reference_on_scrambled_traces(monkeypatch, first):
    for seed in range(first, first + 50):
        if seed % 8:
            energy = random.Random(seed).choice((2, 6, 30))
            landscape = random_landscape(seed=seed, max_states=14, max_energy=energy)
        else:
            landscape = _fixture(FIXTURES[seed % 3])
        _tamper(monkeypatch, _scramble(seed))
        want = report_to_dict(reference_verify(landscape))
        assert report_to_dict(verify_equivalence(landscape)) == want, seed


@pytest.mark.parametrize("path", list(BAD), ids=lambda p: p.name)
def test_matches_the_reference_when_a_failing_pair_loses_its_singleton(monkeypatch, path):
    # a failing pair fails until its singleton merges; from then on it
    # holds, and it is no longer read
    def edit(landscape, trace):
        level, big, single = _fresh_with_single(trace)
        # one more edit in the round: the singleton's cost to the class, bumped
        trace.records.rounds[level.index - 1][1].append((single, big, level.rows[single][big] + 1))

    _tamper(monkeypatch, edit)
    report = _same_report(load_landscape(path.read_text()))
    assert not report["conditions"][1]["boundary_costs_ok"] and report["conditions"][-1]["boundary_costs_ok"]


def _reformed_with_new_state(landscape, trace):
    """A round that re-forms a big class at its slot with a state on its new
    boundary that was not on its old one, a singleton in that round: (the
    round before, that round, the slot, the state's slot)."""
    index = landscape.numbering()[1]
    for before, level in zip(trace.levels, trace.levels[1:]):
        for slot in sorted(level.formed):
            was = before.members.get(slot, ())
            if len(was) > 1:
                new = exterior_boundary(landscape, level.members[slot])
                for x in sorted(new - exterior_boundary(landscape, was)):
                    single = index[x]
                    if len(level.members.get(single, ())) == 1 and single in before.rows:
                        return before, level, slot, single
    raise AssertionError("no re-formed class with a new boundary state")


@pytest.mark.parametrize("name", FIXTURES[1:])
def test_matches_the_reference_when_a_reformed_class_reaches_a_new_state(monkeypatch, name):
    # with the cost to it dropped from the class's row, and no edit of the
    # round on its own row, only the boundary says that the pair is read now
    def edit(landscape, trace):
        _, level, slot, single = _reformed_with_new_state(landscape, trace)
        edits = trace.records.rounds[level.index - 1][1]
        edits[:] = [(src, dst, value) for src, dst, value in edits if src != single]
        edits.append((slot, single, None))

    _tamper(monkeypatch, edit)
    assert not _same_report(_fixture(name))["ok"]


@pytest.mark.parametrize("name", FIXTURES[1:])
def test_matches_the_reference_when_a_reformed_class_is_lifted(monkeypatch, name):
    # a new lift moves every cost out of the re-formed class, so each of its
    # pairs is read again
    def edit(landscape, trace):
        _, level, slot, single = _reformed_with_new_state(landscape, trace)
        _bump_group(2)(trace.records, level, slot, single)

    _tamper(monkeypatch, edit)
    assert not _same_report(_fixture(name))["ok"]


def _living_pair(trace):
    """A big class that lives on through a round at its slot, beside a
    singleton in its row: (that round, the slot, the singleton's slot)."""
    for before, level in zip(trace.levels, trace.levels[1:]):
        for slot, cls in sorted(level.members.items()):
            if len(cls) > 1 and before.members.get(slot) is cls and slot in level.rows:
                for single in sorted(level.rows[slot]):
                    if len(level.members.get(single, ())) == 1:
                        return level, slot, single
    raise AssertionError("no class lives through a round beside a singleton")


@pytest.mark.parametrize("name", FIXTURES[1:])
@pytest.mark.parametrize("whose", ["class", "singleton"])
def test_matches_the_reference_when_a_row_is_replaced_for_one_round(monkeypatch, name, whose):
    # an edit bumping one cost of the pair, and one putting the old value
    # back first in the next round: only the edits say that the pair is read
    # again, in that round and in the next
    def edit(landscape, trace):
        level, big, single = _living_pair(trace)
        src, dst = (big, single) if whose == "class" else (single, big)
        value, rounds = level.rows[src][dst], trace.records.rounds
        rounds[level.index - 1][1].append((src, dst, value + 1))
        if level.index < len(rounds) and src in trace.levels[level.index + 1].rows:
            rounds[level.index][1].insert(0, (src, dst, value))

    _tamper(monkeypatch, edit)
    assert not _same_report(_fixture(name))["ok"]
