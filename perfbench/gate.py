"""Correctness gate applied to every report the benchmark produces.

A record fails when its ``ok`` is false, when the command raised, when the
report's exit code breaks the contract (0 all consistent, 1 otherwise; the
benchmark expects 0), when a verdict on the obstruction class differs from
the expected table, or when a conjugated copy's basis-independent verdicts
differ from those of the catalog pair it was made from.
"""

from __future__ import annotations

import hashlib
import json

# Whether the obstruction class vanishes, per catalog pair.  The class is
# non-trivial exactly for sl2-borel, and a basis change cannot alter that.
EXPECTED_CLASS_TRIVIAL = {
    "sl2-borel": False,
    "semidirect-split": True,
    "diagonal-heisenberg": True,
    "diagonal-sl2": True,
    "abelian-inclusion": True,
}

# witness fields whose values do not depend on the basis of g
BASIS_FREE_WITNESS = (
    "alpha_trivial",
    "extension_exists",
    "level2_splits",
    "free_side_levels",
    "straightened_side_levels",
    "target_dims",
    "expected",
    "normal_forms",
    "rank_codimensions",
)


def digest(report) -> str:
    """SHA-256 of the report's JSON as ``pbwgate --json`` writes it, with
    every ``millis`` field removed."""
    doc = report.to_dict()  # fresh dicts, so popping leaves the report alone
    for rec in doc["records"]:
        rec.pop("millis", None)
    return hashlib.sha256((json.dumps(doc, indent=2) + "\n").encode()).hexdigest()


def _record_signature(rec) -> list:
    fields = {}
    witness = rec.witness
    for key in BASIS_FREE_WITNESS:
        if key in witness:
            fields[key] = witness[key]
    for side in ("F", "R"):  # the dimensions record nests its numbers per side
        if isinstance(witness.get(side), dict):
            fields[side] = {k: witness[side][k] for k in BASIS_FREE_WITNESS if k in witness[side]}
    return [rec.check, rec.verdict, rec.ok, fields]


def signature(report) -> list:
    """The basis-independent content of a report, record by record."""
    return [_record_signature(rec) for rec in report.records]


def check(job, outcome, reference=None, expected=EXPECTED_CLASS_TRIVIAL):
    """Gate one job.  ``outcome`` is a Report or the exception the command
    raised; ``reference`` is the signature the report must equal, if any.

    Returns (records attempted, records failed, failure messages).  A
    failure of the whole job (an exception, a broken exit-code contract)
    counts as one failed record when no single record failed.
    """
    if isinstance(outcome, Exception):
        return 1, 1, [f"{job.label}: raised {type(outcome).__name__}: {outcome}"]
    report = outcome
    messages = []
    bad = set()
    want_trivial = expected.get(job.base)
    sig = signature(report)
    for pos, rec in enumerate(report.records):
        if not rec.ok:
            messages.append(f"{job.label}: record {rec.check} not ok: {rec.verdict}")
        elif "alpha_trivial" in rec.witness and rec.witness["alpha_trivial"] != want_trivial:
            messages.append(
                f"{job.label}: record {rec.check} says class trivial={rec.witness['alpha_trivial']},"
                f" expected {want_trivial}"
            )
        elif reference is not None and (pos >= len(reference) or sig[pos] != reference[pos]):
            messages.append(f"{job.label}: record {rec.check} differs from the catalog pair's")
        else:
            continue
        bad.add(pos)
    if reference is not None and len(reference) != len(sig):
        messages.append(f"{job.label}: {len(sig)} records, the catalog pair gives {len(reference)}")
    want_exit = 0 if all(rec.ok for rec in report.records) else 1
    if report.exit_code != want_exit or report.exit_code != 0:
        messages.append(f"{job.label}: exit code {report.exit_code}")
    attempted = max(len(report.records), 1)
    failed = len(bad) or (1 if messages else 0)
    return attempted, failed, messages
