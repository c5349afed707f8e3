"""Deterministic benchmark inputs.

Every generator takes the workload seed and nothing else that varies, so the
same seed gives byte-identical inputs.  The program under test only sees the
files written from these documents.
"""

from __future__ import annotations

import json
import random

# the paper's figure: an 11-state chain a..k whose well {i, j} has depth 3
FIG1_ENERGIES = dict(zip("abcdefghijk", [2, 5, 1, 2, 2, 2, 4, 3, 0, 1, 5]))

# ``fuzz`` builds landscape i of a campaign from this seed; the corpus below
# must use the same formula so that it is the corpus ``fuzz`` verifies
FUZZ_SEED_STRIDE = 1_000_003


def _rng(kind: str, seed: int) -> random.Random:
    # string seeds are hashed with SHA-512, so this is stable across processes
    return random.Random(f"{kind}:{seed}")


def grid_document(side: int, max_energy: int, seed: int, index: int = 0) -> dict:
    """Grid ``index`` of a seed's batch: a side x side 4-neighbour grid with
    integer energies uniform in 0..max_energy."""
    rng = _rng(f"grid-{side}-{max_energy}-{index}", seed)
    ids = [[f"r{r}c{c}" for c in range(side)] for r in range(side)]
    states = [
        {"id": ids[r][c], "energy": str(rng.randint(0, max_energy))}
        for r in range(side)
        for c in range(side)
    ]
    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append([ids[r][c], ids[r][c + 1]])
            if r + 1 < side:
                edges.append([ids[r][c], ids[r + 1][c]])
    return {"energy_scale": 1_000_000, "states": states, "edges": edges}


def fig1_document() -> dict:
    states = [{"id": s, "energy": str(e)} for s, e in FIG1_ENERGIES.items()]
    names = list(FIG1_ENERGIES)
    edges = [[x, y] for x, y in zip(names, names[1:])]
    return {"energy_scale": 1_000_000, "states": states, "edges": edges}


def fuzz_campaigns(seed: int, campaigns: int) -> list[int]:
    """The ``--seed`` of each ``fuzz`` campaign of a workload seed."""
    return [seed * campaigns + k for k in range(campaigns)]


def fuzz_seeds(campaign: int, count: int) -> list[int]:
    """The per-landscape seeds of ``fuzz --seed <campaign> --count <count>``."""
    return [campaign * FUZZ_SEED_STRIDE + i for i in range(count)]


def fuzz_corpus(campaigns: list[int], count: int, random_landscape) -> list:
    """The landscapes the campaigns verify, built with the package's generator."""
    return [random_landscape(seed=s) for c in campaigns for s in fuzz_seeds(c, count)]


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"
