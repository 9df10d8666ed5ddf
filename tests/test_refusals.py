"""Refusals and zero results at the public boundaries: each map refuses a
word of the wrong kind by its own name, each constructor refuses what it
cannot represent, and each normal form that is zero reads as zero."""

import random

import pytest

from pregerst.cli import main
from pregerst.cooperations import (
    cocrochet_lie,
    delta_cocom,
    delta_leibniz,
    delta_perm,
    kappa,
    kappa_prime,
    kappa_prime_sym,
)
from pregerst.errors import SchemaError
from pregerst.grading import SHIFT1, SHIFT2, GeneratorRegistry, Permutation, shuffles_k1m
from pregerst.models import FormsModel, _d_terms, admit_differential
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    _add_term,
    normalize,
    shuffle_product,
    sym_product,
)

REG = GeneratorRegistry()
A, B = Gen(REG.declare("a", 2)), Gen(REG.declare("b", 2))
TENSOR = Element.single(Tensor((A, B)))
SYM = Element.single(Sym((Tensor((A,)),)))


@pytest.mark.parametrize("name, call, elem", [
    ("delta_leibniz", delta_leibniz, SYM),
    ("cocrochet_lie", cocrochet_lie, SYM),
    ("delta_cocom", lambda e: delta_cocom(e, SHIFT1), TENSOR),
    ("delta_perm", delta_perm, TENSOR),
    ("kappa_prime", kappa_prime, TENSOR),
    ("kappa", kappa, SYM),
], ids=lambda v: v if isinstance(v, str) else "")
def test_a_coproduct_refuses_a_wrong_kind_by_its_own_name(name, call, elem):
    with pytest.raises(SchemaError, match="^%s expects" % name):
        call(elem)


def test_cocrochet_refusal_names_the_map_called(capsys):
    code = main(["eval", "--op", "cocrochet", "--expr", "1/1 * S(a)", "--gens", "a:2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cocrochet_lie expects tensor words\n"


def test_kappa_refusal_of_a_generator_tail_factor_names_kappa(capsys):
    code = main(["eval", "--op", "kappa", "--expr", "1/1 * P(T(a,b); S(c))",
                 "--gens", "a:2,b:2,c:2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: kappa expects pair words of tensor words\n"
    with pytest.raises(SchemaError, match="^kappa expects"):
        kappa(Element.single(Pair(Tensor((A,)), Sym((B,)))))


def test_kappa_prime_sym_of_a_word_whose_normal_form_is_zero():
    # T(a,b) has odd degree' 1, so the symmetric square is zero; as built
    # here it is not in canonical form and kappa_prime_sym normalizes it
    square = Element.single(Sym((Tensor((A, B)), Tensor((A, B)))))
    assert normalize(square, SHIFT2) == Element()
    assert kappa_prime_sym(square) == Element()


def test_normalize_drops_a_word_with_a_factor_that_is_zero():
    # a has odd degree 1, so S(a,a) is zero, and so is every word around it
    zero = Sym((A, A))
    assert normalize(Element.single(Tensor((zero, B))), SHIFT1) == Element()
    assert normalize(Element.single(Pair(Tensor((zero,)), Sym(()))), SHIFT1) == Element()


@pytest.mark.parametrize("exps, dxs, message", [
    ((1,), (), "exponent vector has wrong length"),
    ((-1, 0), (), "negative exponent"),
    ((0, 0), (3,), "dx index out of range"),
    ((0, 0), (1, 1), "repeated dx index"),
])
def test_forms_atom_refuses_what_is_not_a_monomial(exps, dxs, message):
    with pytest.raises(ValueError, match=message):
        FormsModel(2).atom(exps, dxs)


def test_forms_model_needs_a_coordinate():
    with pytest.raises(ValueError, match="at least one coordinate"):
        FormsModel(0)


class _FirstTermOfD(FormsModel):
    """d cut to the first term of each atom's exterior derivative: linear,
    but no derivation of the products."""

    def _d_into(self, acc, operand, coeff):
        for a, ca in operand.items():
            for c, record in _d_terms(self._records[a])[:1]:
                _add_term(acc, self._atoms.get(record) or self._atom_at(record), coeff * ca * c)


def test_admission_refuses_a_differential_that_is_no_derivation():
    assert not admit_differential(_FirstTermOfD(2, exterior_differential=True), random.Random(1))
    assert admit_differential(FormsModel(2, exterior_differential=True), random.Random(1))


def test_word_constructors_refuse_the_wrong_kind():
    with pytest.raises(SchemaError, match="pair tail must be a symmetric word"):
        Pair(Tensor((A,)), Tensor((B,)))
    with pytest.raises(SchemaError, match="shuffle product expects tensor words"):
        shuffle_product(Sym((Tensor((A,)),)), Tensor((B,)), SHIFT1)
    for left, right in ((TENSOR, SYM), (SYM, TENSOR)):
        with pytest.raises(SchemaError, match="sym_product expects symmetric words"):
            sym_product(left, right, SHIFT2)


def test_permutation_refusals():
    with pytest.raises(ValueError, match="size mismatch"):
        Permutation((2, 1)).compose(Permutation((1, 2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        shuffles_k1m(-1, 2)


def test_a_generator_declaration_needs_its_degree(capsys):
    code = main(["eval", "--op", "normalize", "--expr", "1/1 * T(a)", "--gens", "a"])
    assert code == 2
    assert capsys.readouterr().err == "error: generator declaration 'a' is not name:degree\n"
