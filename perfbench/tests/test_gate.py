"""The benchmark's own tests: the gate fails on a wrong verdict or a flipped
record, the tracer leaves the package as it found it, the speed sampler
probes during a job and restores the timer, and the printed metrics are
exactly the ones BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Job, conjugate_doc, random_invertible  # noqa: E402

pbwgate = run.import_package()
from pbwgate import catalog, engine, report  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, *argv):
    code = run.main(list(argv))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def _job(name, command="alpha"):
    return Job(f"{name} {command}", name, "", command, None)


def test_gate_accepts_a_correct_report():
    rep = report.run_command("alpha", catalog.catalog_get("sl2-borel"))
    assert gate.check(_job("sl2-borel"), rep) == (1, 0, [])


def test_gate_rejects_a_wrong_class_verdict():
    rep = report.run_command("alpha", catalog.catalog_get("diagonal-heisenberg"))
    tampered = dict(gate.EXPECTED_CLASS_TRIVIAL, **{"diagonal-heisenberg": False})
    attempted, failed, messages = gate.check(_job("diagonal-heisenberg"), rep, expected=tampered)
    assert (attempted, failed) == (1, 1)
    assert "expected False" in messages[0]


def test_gate_rejects_a_raised_command():
    assert gate.check(_job("sl2-borel"), RuntimeError("boom"))[:2] == (1, 1)


def test_gate_rejects_a_conjugate_that_disagrees_with_its_original():
    original = report.run_command("oracle", catalog.catalog_get("semidirect-split"), max_degree=2)
    doc = catalog.catalog_get("semidirect-split").to_dict()
    p_mat, p_inv = random_invertible(random.Random(7), doc["g"]["dim"])
    copy = pbwgate.problem.parse_problem(json.dumps(conjugate_doc(doc, p_mat, p_inv, "copy")))
    conj = report.run_command("oracle", copy, max_degree=2)
    job = _job("semidirect-split", "oracle")
    assert gate.check(job, conj, gate.signature(original))[1] == 0
    wrong = gate.signature(original)
    wrong[0][3]["free_side_levels"] = {"2": False}
    assert gate.check(job, conj, wrong)[1] == 1


def test_digest_ignores_millis():
    rep = report.run_command("alpha", catalog.catalog_get("sl2-borel"))
    before = gate.digest(rep)
    rep.records[0].millis += 17
    assert gate.digest(rep) == before
    rep.records[0].verdict += "!"
    assert gate.digest(rep) != before


def test_tampered_expected_verdict_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(gate.EXPECTED_CLASS_TRIVIAL, "sl2-borel", True)
    code, result = _run(capsys, "--workload", "conjugated", "--seed", "1", "--seconds", "0")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_flipped_record_fails_the_run(capsys, monkeypatch):
    real = report._check_split

    def flipped(*args, **kwargs):
        rec = real(*args, **kwargs)
        rec.ok = not rec.ok
        return rec

    monkeypatch.setattr(report, "_check_split", flipped)
    code, result = _run(capsys, "--workload", "conjugated", "--seed", "1", "--seconds", "0")
    assert code != 0
    assert result["failed"] > 0 and result["failed"] <= result["attempted"]


def test_tracer_restores_the_package_and_nests_spans():
    originals = (engine.section_oracle, report.section_oracle, engine.FilteredModule.__init__)
    problem = catalog.catalog_get("sl2-borel")
    with tracer.Tracer(pbwgate) as tr:
        assert report.section_oracle is not originals[1]
        report.run_command("oracle", problem, max_degree=3)
        tr.end_request()
    assert (engine.section_oracle, report.section_oracle, engine.FilteredModule.__init__) == originals
    metrics, self_s, solves, spans = tr.take_pass()
    assert metrics["engine.oracle.calls"] > 0 and metrics["engine.oracle.F3.unknowns"] > 0
    assert metrics["engine.rewrite.free_words"] > 0
    names = {name for name, *_ in spans}
    assert {"report", "engine.oracle", "engine.filtration", "cohomology.is_trivial"} <= names
    root = [s for s in spans if s[0] == "report"]
    assert len(root) == 1 and root[0][3] is None
    assert all(parent is not None for name, _, _, parent, _ in spans if name != "report")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_the_declaration(capsys, trace, section):
    code, result = _run(capsys, "--workload", "conjugated", "--seed", "2", "--seconds", "0",
                        "--trace", str(trace))
    assert code == 0 and result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_sampler_probes_during_a_job_and_restores_the_timer():
    import signal
    import time

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3 and sampler.spent[0] > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    wall, _ = sampler.scale(1.0, 1.0)
    mean = sum(s[0] for s in sampler.samples) / len(sampler.samples)
    assert wall == pytest.approx(speed.REFERENCE_S / mean)
