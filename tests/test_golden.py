"""Golden outputs: the CLI's stdout on the paper's figure and on a fixed-seed
fuzz campaign must stay byte-identical across refactors.

The files under ``data/golden`` are the outputs of the commands below on
``data/fig1.json``.  Regenerate them only for an intended change of output,
and say why in the change log.
"""

import hashlib

import pytest

from basincycles.cli import main

from conftest import DATA, FIG1_PATH

GOLDEN = DATA / "golden"

CASES = [
    (("path-cycles",), "path-cycles.json"),
    (("path-cycles", "--dot"), "path-cycles.dot"),
    (("graph-cycles", "--iterations"), "graph-cycles-iterations.json"),
    (("verify",), "verify.json"),
    # pins the sampler's draw stream: a change to it shows up as a diff
    (
        ("simulate", "--cycle", "i,j", "--betas", "2,3", "--replicas", "200",
         "--seed", "20260810", "--start", "i", "--visit", "j"),
        "simulate.json",
    ),
]

FUZZ_SHA256 = "d560751a586a598ae5a697576339fc64babf6c1394252eb09a66feb32ef77557"


def _stdout(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, name", CASES, ids=[name for _, name in CASES])
def test_fig1_output_matches_golden(capsys, argv, name):
    command, *flags = argv
    code, out = _stdout(capsys, [command, str(FIG1_PATH), *flags])
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_fuzz_campaign_digest(capsys):
    code, out = _stdout(capsys, ["fuzz", "--count", "1000", "--seed", "0"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FUZZ_SHA256
