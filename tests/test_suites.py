"""Suite orchestration: determinism, abort handling, exit codes."""

import hashlib

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
