"""Workload definitions: the problems each workload parses and the commands
it runs on them, generated from a seed.

A workload is a list of jobs; one pass runs every job once, in order, each
on a freshly parsed problem.  Inputs reach the program only as problem-file
JSON text, so the program sees exactly what a user's file would give it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Job:
    """One closed-loop request: run ``command`` on the problem ``text``."""

    label: str  # problem name plus the command, unique within a workload
    base: str  # catalog entry the problem was derived from
    text: str  # problem-file JSON
    command: str
    max_degree: Optional[int]


# ---------------------------------------------------------------------------
# seeded basis changes (entries in [-2, 2], rank-checked)
# ---------------------------------------------------------------------------


def _inverse(mat: list) -> Optional[list]:
    """Exact inverse of a square Fraction matrix, or None when singular."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_invertible(rng: random.Random, n: int):
    """A random integer matrix with entries in [-2, 2] and its inverse."""
    while True:
        mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        inv = _inverse(mat)
        if inv is not None:
            return mat, inv


def _apply(mat: list, vec: list) -> list:
    return [sum((row[k] * vec[k] for k in range(len(vec)) if vec[k]), Fraction(0)) for row in mat]


def conjugate_doc(doc: dict, p_mat: list, p_inv: list, name: str) -> dict:
    """The same inclusion written in the basis b_i = sum_k P[k][i] e_k.

    ``doc`` is a problem document as ``ProblemFile.to_dict`` writes it
    (brackets stored once, for i < j).
    """
    dim = doc["g"]["dim"]
    table = {}
    for i, j, terms in doc["g"]["brackets"]:
        vec = {k: Fraction(c) for k, c in terms}
        table[(i, j)] = vec
        table[(j, i)] = {k: -c for k, c in vec.items()}
    cols = [[p_mat[k][i] for k in range(dim)] for i in range(dim)]
    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            acc = [Fraction(0)] * dim
            for k, a in enumerate(cols[i]):
                if not a:
                    continue
                for l, b in enumerate(cols[j]):
                    if b:
                        for t, c in table.get((k, l), {}).items():
                            acc[t] += a * b * c
            moved = _apply(p_inv, acc)
            terms = [[t, str(c)] for t, c in enumerate(moved) if c]
            if terms:
                brackets.append([i, j, terms])
    h = doc["h"]
    if "indices" in h:
        emb = [[Fraction(int(r == idx)) for r in range(dim)] for idx in h["indices"]]
    else:
        emb = [[Fraction(x) for x in col] for col in h["embedding"]]
    out = {
        "name": name,
        "g": {"dim": dim, "labels": [f"b{i}" for i in range(dim)], "brackets": brackets},
        "h": {"embedding": [[str(x) for x in _apply(p_inv, col)] for col in emb]},
    }
    if doc.get("settings"):
        out["settings"] = doc["settings"]
    return out


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

# The pairs the conjugated and structure-deep workloads run: the golden case
# with a non-trivial class and the three others on a non-abelian algebra.
CORE_PAIRS = ("sl2-borel", "semidirect-split", "diagonal-heisenberg", "diagonal-sl2")

# `all` at default caps on diagonal-sl2 takes 26-40 s (the level-4 oracle and
# twisted(n) at K=3), longer than a whole measured run; at K=2 a pass of the
# six entries takes about 2 s, so a run holds enough passes for a median.
CATALOG_CAPS = {"diagonal-sl2": 2}

# Caps per pair for the conjugated copies.  In scrambled coordinates the cost
# of one solve swings with the basis change: the six-dimensional pairs'
# level-3 oracle takes 0.1-30 s and semidirect-split's level-4 oracle
# 0.15-1.1 s.  Those caps are left out so that a run holds enough draws for
# its median to repeat across seeds.
CONJUGATED_CAPS = {  # name -> (oracle K, split K)
    "sl2-borel": (4, 4),
    "semidirect-split": (3, 4),
    "diagonal-heisenberg": (2, 3),
    "diagonal-sl2": (2, 3),
}

# split and koszul at K=6 take about 12 s per pass; K=5 keeps the same code
# paths at about 2 s.
STRUCTURE_CAP = 5


def _doc_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _catalog_all(catalog, seed: int, pass_index: int) -> list:
    names = list(catalog.catalog_list())
    random.Random(f"catalog-all:{seed}").shuffle(names)
    jobs = []
    for name in names:
        cap = CATALOG_CAPS.get(name)
        text = _doc_text(catalog.catalog_get(name).to_dict())
        label = name if cap is None else f"{name} K={cap}"
        jobs.append(Job(f"{label} all", name, text, "all", cap))
    return jobs


def _conjugated(catalog, seed: int, pass_index: int) -> list:
    rng = random.Random(f"conjugated:{seed}:{pass_index}")
    jobs = []
    for name in CORE_PAIRS:
        doc = catalog.catalog_get(name).to_dict()
        p_mat, p_inv = random_invertible(rng, doc["g"]["dim"])
        conj_name = f"{name}~s{seed}p{pass_index}"
        text = _doc_text(conjugate_doc(doc, p_mat, p_inv, conj_name))
        oracle_k, split_k = CONJUGATED_CAPS[name]
        jobs.append(Job(f"{conj_name} oracle K={oracle_k}", name, text, "oracle", oracle_k))
        jobs.append(Job(f"{conj_name} split K={split_k}", name, text, "split", split_k))
    return jobs


def _structure_deep(catalog, seed: int, pass_index: int) -> list:
    jobs = []
    for name in CORE_PAIRS:
        text = _doc_text(catalog.catalog_get(name).to_dict())
        for command in ("split", "koszul"):
            jobs.append(Job(f"{name} {command} K={STRUCTURE_CAP}", name, text, command, STRUCTURE_CAP))
    random.Random(f"structure-deep:{seed}").shuffle(jobs)
    return jobs


# name -> (jobs(catalog module, seed, pass index), whether every pass repeats the same jobs)
WORKLOADS = {
    "catalog-all": (_catalog_all, True),
    "conjugated": (_conjugated, False),
    "structure-deep": (_structure_deep, True),
}
