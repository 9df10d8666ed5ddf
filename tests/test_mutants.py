"""The curated mutants: source patches applied for one block and undone."""

import importlib
import inspect
import sys
import textwrap

import pytest

from pregerst.envelopes import EnvelopeContext, r2_derivation_defect, zinfinity_d
from pregerst.grading import SHIFT1, GeneratorRegistry
from pregerst.models import FormsModel
from pregerst.mutations import ALL_MUTATION_NAMES, PATCHES, mutant
from pregerst.suites import SuiteConfig, run_suite
from pregerst.words import Element, Gen, Tensor, mu, mu_word, shuffle_product


def live_function(patch):
    obj = importlib.import_module("pregerst." + patch.module)
    for part in patch.function.split("."):
        obj = getattr(obj, part)
    return inspect.unwrap(obj)


def package_code():
    """The code object of every function and method in the package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "pregerst" and not name.startswith("pregerst."):
            continue
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == name]
        for owner in owners:
            for attr, value in vars(owner).items():
                fn = inspect.unwrap(getattr(value, "__func__", value))
                if inspect.isfunction(fn):
                    out[(name, owner.__name__, attr)] = fn.__code__
    return out


def test_the_ten_curated_names_in_order():
    assert ALL_MUTATION_NAMES == [
        "mu2_identity", "shuffle_unsigned", "r2_bracket_plus", "m_tail_sign_drop",
        "kappa_head_sign_drop", "kappa_prime_prefix_drop", "zinf_q2_sign_drop",
        "l2_sym_sign_flip", "wedge_scale_drop", "embed_unsigned",
    ]


@pytest.mark.parametrize("name", ALL_MUTATION_NAMES)
def test_each_snippet_occurs_once_in_its_target(name):
    patch = PATCHES[name]
    source = textwrap.dedent(inspect.getsource(live_function(patch)))
    assert source.count(patch.old) == 1
    assert patch.new != patch.old


def test_unknown_name_is_refused():
    with pytest.raises(ValueError):
        with mutant("no_such_fault"):
            pass


@pytest.mark.parametrize("name", ALL_MUTATION_NAMES)
def test_every_function_has_its_code_back_after_the_block(name):
    before = package_code()
    fn = live_function(PATCHES[name])
    original = fn.__code__
    with mutant(name):
        assert fn.__code__ is not original
    assert package_code() == before
    with pytest.raises(ZeroDivisionError):
        with mutant(name):
            1 / 0
    after = package_code()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_a_table_built_under_a_mutant_does_not_survive_it():
    reg = GeneratorRegistry()
    word = Tensor(tuple(Gen(reg.declare("t%d" % i, 2)) for i in range(3)))
    clean = mu_word(word, SHIFT1)
    with mutant("mu2_identity"):
        mutated = mu_word(word, SHIFT1)
    assert mutated != clean
    assert mu_word(word, SHIFT1) == clean


def test_mu_code_rows_built_outside_a_mutant_are_not_read_inside_it():
    reg = GeneratorRegistry()
    atoms = tuple(Gen(reg.declare("s%d" % i, d)) for i, d in enumerate((1, 2, 2, 1)))
    sh = shuffle_product(Tensor(atoms[:2]), Tensor(atoms[2:]), SHIFT1)
    assert mu(4, sh, SHIFT1).is_zero()       # builds the code rows of these words
    with mutant("mu2_identity"):
        assert not mu(4, sh, SHIFT1).is_zero()
    assert mu(4, sh, SHIFT1).is_zero()


def _d_squares_to_zero(ctx, u1, u2):
    w = Element.single(Tensor((u1, u2, u1)))
    return zinfinity_d(ctx, zinfinity_d(ctx, w)).is_zero()


def _d_derives_r2(ctx, u1, u2):
    x, y = Element.single(Tensor((u1, u1))), Element.single(Tensor((u1,)))
    return r2_derivation_defect(ctx, x, y).is_zero()


@pytest.mark.parametrize("name, law", [("zinf_q2_sign_drop", _d_squares_to_zero),
                                       ("r2_bracket_plus", _d_derives_r2)])
def test_a_warm_envelope_context_reads_no_image_across_the_block(name, law):
    """The fault sits under an image the context keeps: a stale image would
    hide it inside the block, or keep it after."""
    model = FormsModel(2)
    ctx = EnvelopeContext(model)
    u1, u2 = Gen(model.atom((1, 0), ())), Gen(model.atom((0, 1), ()))
    assert law(ctx, u1, u2) and ctx.images
    with mutant(name):
        assert not law(ctx, u1, u2)
    assert law(ctx, u1, u2)


def test_reports_after_mutation_sanity_equal_reports_before():
    suites = ("leibniz-coalgebra", "mu-shuffle-lemma")
    before = [run_suite(SuiteConfig(s)).structured_lines() for s in suites]
    sanity = run_suite(SuiteConfig("mutation-sanity"))
    assert sanity.passed == len(ALL_MUTATION_NAMES)
    after = [run_suite(SuiteConfig(s)).structured_lines() for s in suites]
    assert after == before
