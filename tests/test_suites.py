"""Suite orchestration: determinism, abort handling, exit codes."""

import hashlib
import json

import pytest

from pregerst.suites import SUITE_NAMES, SuiteConfig, run_suite

# SHA-256 of the structured reports of all suites at their defaults (seed 42),
# in SUITE_NAMES order, as one text: the lines joined by newlines plus a final
# newline, which is also what
#   for s in SUITE_NAMES: pregerst verify --suite s --report structured
# prints.  A change that alters a report on purpose updates this digest and
# says so; README.md ("Report digest") shows how to recompute it.
REPORTS_SHA256 = "aa467ce5e86500629a97cf923d6496de1363f8634bde9ae6c9e2bb4454c4aee1"


def test_suite_registry_names():
    expected = {
        "zinbiel-axioms", "prelie-axioms", "compat", "aguiar", "gerst-derived",
        "mu-shuffle-lemma", "leibniz-coalgebra", "perm-coalgebra",
        "kappa-cojacobi", "kappa-compat", "r2-prelie", "r2-derivation",
        "zinf-square", "prelinf-square", "linf-square", "q-coderiv-delta",
        "q-coderiv-kappa", "q-square", "mutation-sanity",
    }
    assert set(SUITE_NAMES) == expected


def test_unknown_suite_and_model_mismatch():
    with pytest.raises(ValueError):
        SuiteConfig(suite="nope").resolved()
    with pytest.raises(ValueError):
        SuiteConfig(suite="zinbiel-axioms", model="formal").resolved()
    with pytest.raises(ValueError):
        SuiteConfig(suite="q-square", samples=0).resolved()


def test_structured_report_is_deterministic_in_process():
    a = run_suite(SuiteConfig(suite="q-square", samples=8, seed=7))
    b = run_suite(SuiteConfig(suite="q-square", samples=8, seed=7))
    assert a.structured_lines() == b.structured_lines()
    c = run_suite(SuiteConfig(suite="q-square", samples=8, seed=8))
    assert a.structured_lines() != c.structured_lines()


def test_structured_report_has_stable_fields_and_no_timing():
    rep = run_suite(SuiteConfig(suite="linf-square", samples=3, seed=1))
    lines = rep.structured_lines()
    assert len(lines) == len(rep.records) + 1
    for line in lines[:-1]:
        assert line.startswith('{"check":')
        assert "millis" not in line and "time" not in line
    assert '"summary":true' in lines[-1]


def test_exit_codes():
    ok = run_suite(SuiteConfig(suite="zinf-square", samples=5))
    assert ok.exit_code() == 0 and ok.failed == 0
    bad = run_suite(SuiteConfig(suite="q-coderiv-kappa", samples=10))
    assert bad.failed > 0 and bad.exit_code() == 1


def test_term_cap_abort_is_a_third_state():
    rep = run_suite(SuiteConfig(suite="kappa-cojacobi", samples=5, term_cap=5))
    assert rep.aborted > 0
    assert rep.exit_code() == 2
    for r in rep.records:
        if r.status == "abort":
            assert "cap" in r.defect_text
    # the same config without the cap passes, so the cap never turned a pass
    # into a fail
    full = run_suite(SuiteConfig(suite="kappa-cojacobi", samples=5))
    assert full.failed == 0


def test_mutation_sanity_all_detected():
    rep = run_suite(SuiteConfig(suite="mutation-sanity"))
    assert len(rep.records) >= 8
    assert rep.failed == 0 and rep.aborted == 0
    names = {r.check_id for r in rep.records}
    # the curated list spans the operations named in the plan
    assert any("mu2" in n for n in names)
    assert any("shuffle" in n for n in names)
    assert any("r2_bracket" in n for n in names)
    assert any("m_tail" in n for n in names)
    assert any("kappa_head" in n for n in names)


def test_text_report_carries_timing_and_summary():
    rep = run_suite(SuiteConfig(suite="zinf-square", samples=3))
    lines = rep.text_lines()
    assert lines[0].startswith("suite zinf-square")
    assert "summary:" in lines[-1]
    assert any("ms" in line for line in lines[1:-1])


def test_build_time_is_in_the_text_summary_only():
    rep = run_suite(SuiteConfig(suite="zinbiel-axioms", samples=3))
    assert rep.build_ms > 0.0 and rep.total_ms > 0.0
    summary = rep.text_lines()[-1]
    assert summary.startswith("summary: 3 pass, 0 fail, 0 abort  (")
    assert summary.endswith(" s checking, %.1f s building)" % (rep.build_ms / 1000.0))
    for line in rep.structured_lines():
        assert not {"build_ms", "total_ms", "millis"} & set(json.loads(line))
        assert "building" not in line and "checking" not in line


def test_run_suite_restores_the_term_cap():
    from pregerst.words import get_term_cap
    before = get_term_cap()
    assert before == 10**6
    run_suite(SuiteConfig("kappa-cojacobi", samples=5, term_cap=50))
    assert get_term_cap() == before


def test_mutation_sanity_runs_on_forms_only():
    assert SuiteConfig("mutation-sanity").resolved().model == "forms"
    with pytest.raises(ValueError):
        SuiteConfig("mutation-sanity", model="formal").resolved()


def test_empty_run_has_no_verdict():
    rep = run_suite(SuiteConfig("mu-shuffle-lemma", max_tensor_len=1))
    assert rep.records == []
    assert rep.exit_code() == 2


def test_structured_reports_of_all_suites_are_pinned():
    lines = []
    for suite in SUITE_NAMES:
        lines.extend(run_suite(SuiteConfig(suite)).structured_lines())
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS_SHA256


def test_an_instance_that_raises_is_recorded_and_the_run_goes_on(monkeypatch):
    from pregerst import suites
    from pregerst.words import get_term_cap

    spec = suites.SUITE_SPECS["kappa-cojacobi"]
    build = spec.builder

    def failing_thunk():
        raise ValueError("bad instance")

    def patched(config):
        instances = build(config)
        instances[1].thunk = failing_thunk
        return instances

    monkeypatch.setattr(spec, "builder", patched)
    rep = run_suite(SuiteConfig("kappa-cojacobi", samples=3, term_cap=10**5))
    assert [r.status for r in rep.records] == ["pass", "abort"] + ["pass"] * (len(rep.records) - 2)
    assert rep.records[1].defect_text == "error: ValueError: bad instance"
    assert len(rep.records) == 6 and rep.exit_code() == 2
    assert get_term_cap() == 10**6


def _with_thunk(monkeypatch, suite, index, thunk):
    """Run suite at its defaults with instance index's thunk replaced."""
    from pregerst import suites

    spec = suites.SUITE_SPECS[suite]
    build = spec.builder

    def patched(config):
        instances = build(config)
        instances[index].thunk = thunk
        return instances

    monkeypatch.setattr(spec, "builder", patched)
    return run_suite(SuiteConfig(suite))


def test_an_undetected_mutant_fails_the_run(monkeypatch):
    from pregerst.words import Element

    rep = _with_thunk(monkeypatch, "mutation-sanity", 2, Element)
    record = rep.records[2]
    assert (record.status, record.defect_text) == ("fail", "zero (mutation undetected)")
    assert rep.failed == 1 and rep.exit_code() == 1
    assert all(r.status == "pass" for r in rep.records if r is not record)


def test_a_nonzero_defect_fails_with_its_exact_text(monkeypatch):
    from pregerst.grading import GeneratorRegistry
    from pregerst.words import Element, Gen, Tensor, element_to_text

    reg = GeneratorRegistry()
    a, b = Gen(reg.declare("a", 2)), Gen(reg.declare("b", 3))
    defect = Element({Tensor((a, b)): 2, Tensor((b,)): -1})
    rep = _with_thunk(monkeypatch, "linf-square", 0, lambda: defect)
    assert rep.records[0].status == "fail"
    assert rep.records[0].defect_text == element_to_text(defect) == "2/1 * T(a,b) + -1/1 * T(b)"
    assert rep.failed == 1 and rep.exit_code() == 1
