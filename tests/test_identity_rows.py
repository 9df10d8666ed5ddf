"""Every identity row against the textbook: the Element-based axiom_defect,
bracket and dot, and r2_prelie_defect and r2_derivation_defect as they were
written before the rows, each side composed from the model's products and
combined with -, + and scaled.  The rows and the textbook are compared term
by term, with coefficient types, over the forms model with and without its
exterior differential and over the free operations, where the defect is the
relation itself.  The comparison catches a dropped wedge scale and every
flipped sign exponent."""

import random
from fractions import Fraction

import pytest

from pregerst import models
from pregerst.envelopes import (
    EnvelopeContext,
    r2,
    r2_derivation_defect,
    r2_prelie_defect,
    zinfinity_d,
)
from pregerst.errors import SchemaError
from pregerst.grading import BASE, SHIFT1, Generator
from pregerst.models import AxiomId, FormalModel, FormsModel, axiom_defect
from pregerst.mutations import mutant
from pregerst.words import Element, Gen, Tensor, _relation_row

COEFFS = (1, -2, 3, Fraction(1, 2), Fraction(-2, 3))
D_ROWS = (AxiomId.D_DERIV_WEDGE, AxiomId.D_DERIV_DIAMOND)
ALGEBRA_ROWS = tuple(axiom for axiom in AxiomId if axiom not in D_ROWS)


def _sign(exp):
    return -1 if exp & 1 else 1


def textbook_bracket(model, a, b):
    """a<>b - (-1)^{(|a|-1)(|b|-1)} b<>a."""
    if a.is_zero() or b.is_zero():
        return Element()
    da, db = a.homogeneous_degree(BASE), b.homogeneous_degree(BASE)
    return model.diamond(a, b) - model.diamond(b, a).scaled(_sign((da - 1) * (db - 1)))


def textbook_dot(model, a, b):
    """a^b + (-1)^{|a||b|} b^a."""
    if a.is_zero() or b.is_zero():
        return Element()
    da, db = a.homogeneous_degree(BASE), b.homogeneous_degree(BASE)
    return model.wedge(a, b) + model.wedge(b, a).scaled(_sign(da * db))


def textbook_axiom_defect(model, axiom, args):
    """The defect of one axiom, each side built from Element arithmetic."""
    degs = [a.homogeneous_degree(BASE) for a in args]
    if any(a.is_zero() for a in args):
        return Element()
    w, dm, dd = model.wedge, model.diamond, model.differential
    br = lambda a, b: textbook_bracket(model, a, b)
    dot = lambda a, b: textbook_dot(model, a, b)
    if axiom is AxiomId.ZINBIEL:
        x, y, z = args
        lhs = w(w(x, y), z)
        rhs = w(x, w(y, z)) + w(x, w(z, y)).scaled(_sign(degs[1] * degs[2]))
        return lhs - rhs
    if axiom is AxiomId.PRELIE:
        x, y, z = args
        lhs = dm(dm(x, y), z) - dm(x, dm(y, z))
        rhs = dm(dm(x, z), y) - dm(x, dm(z, y))
        return lhs - rhs.scaled(_sign((degs[1] - 1) * (degs[2] - 1)))
    if axiom is AxiomId.COMPAT_A:
        x, y, z = args
        return w(x, dm(y, z)) - w(x, dm(z, y)).scaled(_sign((degs[1] - 1) * (degs[2] - 1)))
    if axiom is AxiomId.COMPAT_B:
        x, y, z = args
        return dm(x, w(y, z)) - w(dm(x, y), z)
    if axiom is AxiomId.COMPAT_C:
        x, y, z = args
        return w(dm(x, y), z) - dm(w(x, z), y).scaled(_sign((degs[1] - 1) * degs[2]))
    if axiom is AxiomId.DERIVED_1:
        x, y, z = args
        return w(x, br(y, z))
    if axiom is AxiomId.DERIVED_2:
        x, y, z = args
        return br(x, w(y, z)) - w(br(x, y), z)
    if axiom is AxiomId.LEIBNIZ_GERST:
        x, y, z = args
        lhs = br(x, dot(y, z))
        rhs = dot(br(x, y), z) + dot(y, br(x, z)).scaled(_sign(degs[1] * (degs[0] - 1)))
        return lhs - rhs
    if axiom is AxiomId.AGUIAR_1:
        x, y, z = args
        lhs = w(br(x, y), z)
        rhs = dm(x, w(y, z)) - dm(y, w(x, z)).scaled(_sign((degs[0] - 1) * (degs[1] - 1)))
        return lhs - rhs
    if axiom is AxiomId.AGUIAR_2:
        x, y, z = args
        lhs = dm(dot(x, y), z)
        rhs = (dm(x, w(z, y)).scaled(_sign((degs[2] - 1) * degs[1]))
               + dm(y, w(z, x)).scaled(_sign(degs[0] * degs[1] + (degs[2] - 1) * degs[0])))
        return lhs - rhs
    if axiom is AxiomId.D_DERIV_WEDGE:
        x, y = args
        return dd(w(x, y)) - w(dd(x), y) - w(x, dd(y)).scaled(_sign(degs[0]))
    x, y = args
    return dd(dm(x, y)) - dm(dd(x), y) - dm(x, dd(y)).scaled(_sign(degs[0] - 1))


def textbook_r2_prelie_defect(ctx, x, y, z):
    dy, dz = y.homogeneous_degree(SHIFT1), z.homogeneous_degree(SHIFT1)
    sign = -1 if (dy or 0) & (dz or 0) & 1 else 1
    lhs = r2(ctx, r2(ctx, x, y), z) - r2(ctx, x, r2(ctx, y, z))
    rhs = r2(ctx, r2(ctx, x, z), y) - r2(ctx, x, r2(ctx, z, y))
    return lhs - rhs.scaled(sign)


def textbook_r2_derivation_defect(ctx, x, y):
    dx = x.homogeneous_degree(SHIFT1)
    d = lambda e: zinfinity_d(ctx, e)
    sign = -1 if (dx or 0) & 1 else 1
    return d(r2(ctx, x, y)) - r2(ctx, d(x), y) - r2(ctx, x, d(y)).scaled(sign)


def typed(elem):
    return {key: (c, type(c)) for key, c in elem.terms.items()}


# -- seeded homogeneous inputs ------------------------------------------------

FORMAL_NAMES = ("a", "b", "c", "e")


def formal_element(rng):
    """1 or 2 atoms of one degree from a small pool, so sides can share keys."""
    degree = rng.randint(1, 4)
    elem = Element()
    for name in rng.sample(FORMAL_NAMES, rng.randint(1, 2)):
        elem.add_term(Generator(name, degree), rng.choice(COEFFS))
    return elem


def forms_element(model, rng):
    elem = model.sample_form(rng, max_poly_degree=2)
    return elem.scaled(rng.choice(COEFFS))


MODELS = {
    "forms3": (lambda: FormsModel(3), ALGEBRA_ROWS),
    "forms2_d": (lambda: FormsModel(2, exterior_differential=True), tuple(AxiomId)),
    "formal": (FormalModel, tuple(AxiomId)),
}


def sample_args(model, rng, arity):
    if type(model) is FormalModel:
        return [formal_element(rng) for _ in range(arity)]
    return [forms_element(model, rng) for _ in range(arity)]


def axiom_mismatches(model_name, seed, samples, axioms=None):
    """(axiom, args) wherever the row and the textbook differ, or a forms
    model, which satisfies every axiom, gives a nonzero defect; and per
    axiom the number of nonzero defects."""
    make, rows = MODELS[model_name]
    model = make()
    rng = random.Random(seed)
    bad, nonzero = [], dict.fromkeys(rows, 0)
    for _ in range(samples):
        for axiom in axioms or rows:
            args = sample_args(model, rng, 2 if axiom in D_ROWS else 3)
            got = axiom_defect(model, axiom, args)
            expected = textbook_axiom_defect(model, axiom, args)
            nonzero[axiom] += not got.is_zero()
            if typed(got) != typed(expected) or (type(model) is FormsModel and got):
                bad.append((axiom, args))
    return bad, nonzero


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_every_axiom_row_equals_the_textbook_term_by_term(model_name):
    bad, nonzero = axiom_mismatches(model_name, 6160, 25)
    assert bad == []
    if model_name == "formal":
        # shared atoms can make a relation vanish, but it seldom does
        assert all(nonzero[axiom] >= 20 for axiom in ALGEBRA_ROWS)
        assert nonzero[AxiomId.D_DERIV_WEDGE] == nonzero[AxiomId.D_DERIV_DIAMOND] == 0


def test_on_free_atoms_the_defect_is_the_relation():
    model = FormalModel()
    rng = random.Random(6165)
    for _ in range(10):
        args = [Element.single(Generator(name, rng.randint(1, 4))) for name in "abc"]
        for axiom in ALGEBRA_ROWS:
            defect = axiom_defect(model, axiom, args)
            assert defect and typed(defect) == typed(textbook_axiom_defect(model, axiom, args))


def test_bracket_and_dot_rows_equal_the_textbook():
    rng = random.Random(6161)
    for model in (FormalModel(), FormsModel(3)):
        for _ in range(40):
            a, b = sample_args(model, rng, 2)
            assert typed(model.bracket(a, b)) == typed(textbook_bracket(model, a, b))
            assert typed(model.dot(a, b)) == typed(textbook_dot(model, a, b))


def test_the_comparison_catches_a_dropped_wedge_scale():
    with mutant("wedge_scale_drop"):
        bad, _ = axiom_mismatches("forms3", 6162, 10, [AxiomId.ZINBIEL])
    assert bad


def flipped(row, side):
    """The row with one side's sign exponent flipped."""
    arity, graded, sides, _, _ = row
    exponent, tree = sides[side]
    sides = sides[:side] + ((lambda *degs: exponent(*degs) + 1, tree),) + sides[side + 1:]
    return _relation_row(arity, sides, graded)


# x ^ dy = x /\ d(dy) / |dy| vanishes on forms, so flipping its sign changes
# nothing there, and the free model has d = 0
EQUIVALENT = {(AxiomId.D_DERIV_WEDGE, 2)}


def test_the_comparison_catches_every_flipped_sign_exponent(monkeypatch):
    for model_name, axioms in (("formal", ALGEBRA_ROWS), ("forms2_d", D_ROWS)):
        for axiom in axioms:
            row = models._AXIOMS[axiom]
            for side in range(len(row[2])):
                if (axiom, side) in EQUIVALENT:
                    continue
                monkeypatch.setitem(models._AXIOMS, axiom, flipped(row, side))
                bad, _ = axiom_mismatches(model_name, 6163, 8, [axiom])
                assert bad, (axiom, side)
            monkeypatch.setitem(models._AXIOMS, axiom, row)


def test_rows_keep_the_argument_checks():
    model = FormsModel(2)
    u1 = {model.atom((1, 0), ()): 1}
    mixed = {model.atom((1, 0), ()): 1, model.atom((0, 0), (1,)): 1}
    with pytest.raises(ValueError, match="^axiom compat_b takes 3 arguments$"):
        axiom_defect(model, AxiomId.COMPAT_B, [u1, u1])
    with pytest.raises(SchemaError, match="^axiom aguiar_2 needs homogeneous arguments$"):
        axiom_defect(model, AxiomId.AGUIAR_2, [u1, u1, mixed])
    for axiom in AxiomId:
        args = [u1, {}] + [u1] * (axiom not in D_ROWS)
        assert axiom_defect(model, axiom, args) == Element()


# -- the identities of r2 -----------------------------------------------------

def tensor_element(model, rng, length):
    """One tensor word, or two with the same factors in another order, so
    the element is homogeneous."""
    if type(model) is FormalModel:
        atoms = [Gen(Generator(rng.choice(FORMAL_NAMES), rng.randint(1, 3)))
                 for _ in range(length)]
    else:
        atoms = [Gen(model.sample_atom(rng, max_poly_degree=2)) for _ in range(length)]
    elem = Element.single(Tensor(tuple(atoms)), rng.choice(COEFFS))
    if length > 1 and rng.random() < 0.5:
        elem.add_term(Tensor(tuple(reversed(atoms))), rng.choice(COEFFS))
    return elem


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_r2_rows_equal_the_textbook_term_by_term(model_name):
    model = MODELS[model_name][0]()
    rng = random.Random(6164)
    nonzero = 0
    for _ in range(25):
        x, y, z = (tensor_element(model, rng, rng.randint(1, 2)) for _ in range(3))
        got = r2_prelie_defect(EnvelopeContext(model), x, y, z)
        assert typed(got) == typed(textbook_r2_prelie_defect(EnvelopeContext(model), x, y, z))
        got2 = r2_derivation_defect(EnvelopeContext(model), x, y)
        assert typed(got2) == typed(textbook_r2_derivation_defect(EnvelopeContext(model), x, y))
        nonzero += bool(got) + bool(got2)
    assert (nonzero > 10) == (model_name == "formal")
