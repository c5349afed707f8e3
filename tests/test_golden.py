"""Golden outputs: the CLI's stdout on the paper's figure, on two small grids
and on a fixed-seed fuzz campaign must stay byte-identical across refactors,
and on the figure and the grids also across the order in which a file lists
its states and edges.

The files under ``data/golden`` are the outputs of the commands below.
Regenerate them only for an intended change of output, and say why in the
change log.

Every test here runs with the stdlib's pure-Python JSON encoder disabled.
``json.dumps`` with ``indent`` falls back to it and is several times slower
than the package's writer, so a command that reaches it fails here instead
of quietly costing a large share of its run time.
"""

import hashlib
import json
import random
import subprocess
import sys

import pytest

from basincycles.cli import main
from basincycles.graphcycles import run_decomposition, trace_to_dict
from basincycles.landscape import load_landscape
from basincycles.pathcycles import enumerate_path_cycles, tree_to_dict

from conftest import DATA, FIG1_PATH, fresh_env, grid_text

GOLDEN = DATA / "golden"

# (max_energy, input file): 8 x 8 grids whose per-round cost matrices pin the
# renormalization on plateaus (0..2) and on nearly tie-free energies (0..1000)
GRIDS = [(2, "grid8-e2.json"), (1000, "grid8-e1000.json")]
GRID_SEED = 20261018

CASES = [
    (("validate",), "validate.json"),
    (("path-cycles",), "path-cycles.json"),
    (("path-cycles", "--dot"), "path-cycles.dot"),
    (("graph-cycles",), "graph-cycles.json"),
    (("graph-cycles", "--iterations"), "graph-cycles-iterations.json"),
    (("verify",), "verify.json"),
    # pins the sampler's draw stream: a change to it shows up as a diff
    (
        ("simulate", "--cycle", "i,j", "--betas", "2,3", "--replicas", "200",
         "--seed", "20260810", "--start", "i", "--visit", "j"),
        "simulate.json",
    ),
]

# (input, argv, golden) on the grids
GRID_CASES = [
    ("grid8-e2.json", ("validate",), "grid8-e2-validate.json"),
    ("grid8-e2.json", ("path-cycles",), "grid8-e2-path-cycles.json"),
    ("grid8-e2.json", ("graph-cycles",), "grid8-e2-graph-cycles.json"),
    ("grid8-e2.json", ("graph-cycles", "--iterations"), "grid8-e2-graph-cycles-iterations.json"),
    ("grid8-e2.json", ("verify",), "grid8-e2-verify.json"),
    ("grid8-e1000.json", ("validate",), "grid8-e1000-validate.json"),
    ("grid8-e1000.json", ("path-cycles",), "grid8-e1000-path-cycles.json"),
    ("grid8-e1000.json", ("path-cycles", "--dot"), "grid8-e1000-path-cycles.dot"),
    ("grid8-e1000.json", ("graph-cycles",), "grid8-e1000-graph-cycles.json"),
    ("grid8-e1000.json", ("graph-cycles", "--iterations"), "grid8-e1000-graph-cycles-iterations.json"),
    ("grid8-e1000.json", ("verify",), "grid8-e1000-verify.json"),
]

# every command but ``fuzz``, on a copy of each input that declares its
# states and edges in a shuffled order, with each pair's ends in a random order
REORDERED_CASES = [
    (source, argv)
    for source in ("fig1.json", "grid8-e2.json", "grid8-e1000.json")
    for argv in [
        ("validate",),
        ("path-cycles",),
        ("path-cycles", "--dot"),
        ("graph-cycles",),
        ("graph-cycles", "--iterations"),
        ("verify",),
    ]
] + [
    ("fig1.json", argv)
    for argv in [
        ("simulate", "--cycle", "c,d,e,f", "--betas", "1,2", "--replicas", "300",
         "--seed", "5", "--visit", "c"),
        ("simulate", "--cycle", "i,j", "--betas", "2", "--replicas", "300",
         "--seed", "1", "--start", "i", "--visit", "j"),
        CASES[-1][0],
    ]
]

FUZZ_SHA256 = "d560751a586a598ae5a697576339fc64babf6c1394252eb09a66feb32ef77557"


@pytest.fixture(autouse=True)
def refuse_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)


def _stdout(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("max_energy, name", GRIDS, ids=[name for _, name in GRIDS])
def test_grid_inputs_match_their_generator(max_energy, name):
    assert (DATA / name).read_text(encoding="utf-8") == grid_text(8, max_energy, GRID_SEED)


def _check_golden(capsys, source, argv, name):
    command, *flags = argv
    code, out = _stdout(capsys, [command, str(source), *flags])
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, name", CASES, ids=[name for _, name in CASES])
def test_fig1_output_matches_golden(capsys, argv, name):
    _check_golden(capsys, FIG1_PATH, argv, name)


def test_simulate_golden_in_a_fresh_process():
    # conftest imports numpy into this process first, so only a fresh one
    # runs ``simulate`` with numpy first imported inside the command
    (command, *flags), name = CASES[-1]
    done = subprocess.run(
        [sys.executable, "-m", "basincycles.cli", command, str(FIG1_PATH), *flags],
        capture_output=True,
        env=fresh_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("source, argv, name", GRID_CASES, ids=[name for _, _, name in GRID_CASES])
def test_grid_output_matches_golden(capsys, source, argv, name):
    _check_golden(capsys, DATA / source, argv, name)


@pytest.fixture(scope="module")
def reordered(tmp_path_factory):
    """Each input file's shuffled copy, by name."""
    rng = random.Random(20261019)
    copies = {}
    for name in ("fig1.json", "grid8-e2.json", "grid8-e1000.json"):
        doc = json.loads((DATA / name).read_text(encoding="utf-8"))
        rng.shuffle(doc["states"])
        rng.shuffle(doc["edges"])
        for edge in doc["edges"]:
            if rng.random() < 0.5:
                (edge["pair"] if isinstance(edge, dict) else edge).reverse()
        copies[name] = tmp_path_factory.mktemp("reordered") / name
        copies[name].write_text(json.dumps(doc), encoding="utf-8")
    return copies


@pytest.mark.parametrize(
    "source, argv", REORDERED_CASES, ids=[f"{s}:{' '.join(a)}" for s, a in REORDERED_CASES]
)
def test_output_ignores_declaration_order(capsys, reordered, source, argv):
    command, *flags = argv
    code, want = _stdout(capsys, [command, str(DATA / source), *flags])
    assert code == 0
    assert _stdout(capsys, [command, str(reordered[source]), *flags]) == (0, want)


def test_fuzz_campaign_digest(capsys):
    code, out = _stdout(capsys, ["fuzz", "--count", "1000", "--seed", "0"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FUZZ_SHA256


# names whose JSON strings need escapes: a quote, a backslash, a control
# character, non-ASCII letters and a printf directive, on a chain with two
# basins so that ground lists and merged classes hold several of them
ESCAPED = [('"q', 0), ("back\\slash", 2), ("bell\x07", 1), ("é", 3), ("☃", 0), ("%s", 1)]


def test_escaped_names_through_both_exporters(capsys, monkeypatch, tmp_path):
    source = tmp_path / "escaped.json"
    names = [name for name, _ in ESCAPED]
    source.write_text(
        json.dumps(
            {
                "states": [{"id": name, "energy": str(energy)} for name, energy in ESCAPED],
                "edges": [list(pair) for pair in zip(names, names[1:])],
            }
        ),
        encoding="utf-8",
    )
    L = load_landscape(source.read_text(encoding="utf-8"))
    trace = run_decomposition(L)
    wants = {
        ("path-cycles",): tree_to_dict(enumerate_path_cycles(L)),
        ("graph-cycles",): trace_to_dict(trace),
        ("graph-cycles", "--iterations"): trace_to_dict(trace, include_levels=True),
    }
    outs = {}
    for argv, want in wants.items():
        command, *flags = argv
        code, outs[argv] = _stdout(capsys, [command, str(source), *flags])
        assert code == 0
        doc = json.loads(outs[argv])
        assert {key: doc[key] for key in want} == want
    assert wants[("path-cycles",)]["nodes"][-1]["members"] == sorted(names)

    monkeypatch.undo()  # the stdlib's own indented encoder, for the expected text
    for out in outs.values():
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
