"""Every path that builds a sum still checks the term cap.

Each call below completes under the smallest cap that lets it complete,
pinned here, and raises TermBudgetExceeded one below it.  The pins are the
largest number of terms one of the call's sums holds on the way, so a path
that stopped adding through the one signed-sum rule (words._add_term and
words._add_signed) would move a pin or stop raising.
"""

from fractions import Fraction

import pytest

from pregerst.cooperations import LawId, kappa, law_defect
from pregerst.envelopes import EnvelopeContext, coderivation_defect, q_total, r2_prelie_defect
from pregerst.errors import TermBudgetExceeded
from pregerst.grading import SHIFT2, Generator
from pregerst.models import AxiomId, FormsModel, axiom_defect
from pregerst.words import Element, Gen, Pair, Tensor, get_term_cap, set_term_cap, sym_word


def head3_pair():
    """P(T(g0,g1,g2); S(T(g3), T(g4,g5))), degrees 1, 2, 3 in turn."""
    g = [Gen(Generator("g%d" % i, 1 + i % 3)) for i in range(6)]
    sign, tail = sym_word([Tensor(g[3:4]), Tensor(g[4:6])], SHIFT2)
    return Element.single(Pair(Tensor(g[:3]), tail), sign)


def forms_atoms(model):
    """The atom words u1 u2 du3, u2 u3, u1^2 u3 du2 and u1 du1 du2 of a
    three-coordinate forms model."""
    return [Gen(model.atom(exps, dxs)) for exps, dxs in (
        ((1, 1, 0), (3,)), ((0, 1, 1), ()), ((2, 0, 1), (2,)), ((1, 0, 0), (1, 2)))]


def forms_pair(model):
    """P(T(a,b,c); S(T(c), T(b,a), T(d,a))) over forms_atoms."""
    a, b, c, d = forms_atoms(model)
    sign, tail = sym_word([Tensor((c,)), Tensor((b, a)), Tensor((d, a))], SHIFT2)
    return Element.single(Pair(Tensor((a, b, c)), tail), sign)


def kappa_cojacobi():
    return law_defect(LawId.KAPPA_COJACOBI, head3_pair())


def forms_q_total():
    model = FormsModel(3)
    return q_total(EnvelopeContext(model), forms_pair(model))


def forms_coderivation():
    model = FormsModel(3)
    return coderivation_defect(EnvelopeContext(model), q_total, kappa, 1, forms_pair(model))


def leibniz_gerst():
    model = FormsModel(3)

    def form(*terms):
        return Element({model.atom(exps, dxs): c for exps, dxs, c in terms})
    x = form(((1, 0, 0), (2,), 1), ((0, 1, 1), (3,), Fraction(-2, 3)), ((2, 0, 1), (1,), 2),
             ((0, 2, 1), (1,), -1))
    y = form(((0, 2, 0), (), 3), ((1, 0, 1), (), 1), ((1, 1, 1), (), -1), ((3, 0, 0), (), 2))
    z = form(((1, 1, 0), (1,), 1), ((0, 0, 2), (2,), -1), ((2, 1, 0), (3,), 5),
             ((0, 1, 2), (1,), 1))
    return axiom_defect(model, AxiomId.LEIBNIZ_GERST, (x, y, z))


def r2_prelie():
    model = FormsModel(3)
    a, b, c, d = forms_atoms(model)
    x = Element({Tensor((a, b, c)): 1, Tensor((b, d, a)): 2})
    y = Element({Tensor((c, a)): 1, Tensor((a, c)): -3})
    z = Element({Tensor((b, d)): 1, Tensor((d, b)): Fraction(1, 2)})
    return r2_prelie_defect(EnvelopeContext(model), x, y, z)


# each call with the smallest cap under which it completes
PINNED = {
    "law_defect KAPPA_COJACOBI": (kappa_cojacobi, 277),
    "q_total": (forms_q_total, 12),
    "coderivation_defect": (forms_coderivation, 758),
    "axiom_defect LEIBNIZ_GERST": (leibniz_gerst, 25),
    "r2_prelie_defect": (r2_prelie, 35),
}


@pytest.mark.parametrize("name", PINNED)
def test_the_call_completes_at_its_pinned_cap_and_aborts_below_it(name):
    call, cap = PINNED[name]
    previous = get_term_cap()
    try:
        set_term_cap(cap)
        call()
        set_term_cap(cap - 1)
        with pytest.raises(TermBudgetExceeded):
            call()
    finally:
        set_term_cap(previous)
