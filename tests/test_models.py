"""The differential-forms model and the algebra axiom suites."""

import ast
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import pregerst
from pregerst.errors import SchemaError, UnsupportedModelError
from pregerst.grading import BASE, Generator
from pregerst.models import (
    AxiomId,
    FormalModel,
    FormsModel,
    admit_differential,
    axiom_defect,
)
from pregerst.mutations import mutant
from pregerst.words import element_to_text

ALGEBRA_AXIOMS = [
    AxiomId.ZINBIEL, AxiomId.PRELIE, AxiomId.COMPAT_A, AxiomId.COMPAT_B,
    AxiomId.COMPAT_C, AxiomId.DERIVED_1, AxiomId.DERIVED_2,
    AxiomId.LEIBNIZ_GERST, AxiomId.AGUIAR_1, AxiomId.AGUIAR_2,
]


@pytest.fixture
def m2():
    return FormsModel(2)


def one_term(model, exps, dxs, coeff=1):
    return {model.atom(exps, dxs): Fraction(coeff)}


def test_atom_names_and_degrees(m2):
    assert m2.atom((0, 0), ()).name == "one"
    assert m2.atom((2, 1), (2,)).name == "u1.u1.u2.du2"
    assert m2.atom((0, 0), (1, 2)).degree == 3
    assert m2.atom((3, 0), ()).degree == 1


def test_wedge_frozen_values(m2):
    u1 = one_term(m2, (1, 0), ())
    u2 = one_term(m2, (0, 1), ())
    # u1 ^ u2 = (1/|u2|) u1 /\ d(u2) = u1 du2
    assert element_to_text(m2.wedge(u1, u2)) == "1/1 * u1.du2"
    # beta = u2 du1 has degree 2; d(beta) = du2 /\ du1 = -du1 du2
    beta = one_term(m2, (0, 1), (1,))
    assert element_to_text(m2.wedge(u1, beta)) == "-1/2 * u1.du1.du2"
    # a top form with constant coefficient is closed, so wedging by it is zero
    top = one_term(m2, (0, 0), (1, 2))
    assert m2.wedge(u1, top).is_zero()


def test_diamond_frozen_values(m2):
    u1 = one_term(m2, (1, 0), ())
    u2 = one_term(m2, (0, 1), ())
    du1 = one_term(m2, (0, 0), (1,))
    assert element_to_text(m2.diamond(u1, u2)) == "1/1 * u1.u2"
    assert m2.diamond(du1, du1).is_zero()
    # the induced bracket vanishes on forms: exterior commutativity
    assert m2.bracket(du1, u2).is_zero()
    assert m2.bracket(u1, u2).is_zero()


def test_exterior_square_signs(m2):
    du1 = one_term(m2, (0, 0), (1,))
    du2 = one_term(m2, (0, 0), (2,))
    a = m2.diamond(du1, du2)
    b = m2.diamond(du2, du1)
    assert a == -b


def test_forms_axiom_battery():
    rng = random.Random(99)
    for n in (2, 3):
        model = FormsModel(n)
        for trial in range(75):
            args = [model.sample_form(rng) for _ in range(3)]
            for axiom in ALGEBRA_AXIOMS:
                defect = axiom_defect(model, axiom, args)
                assert defect.is_zero(), "%s failed on %s: %s" % (
                    axiom, "; ".join(map(element_to_text, args)), element_to_text(defect))


def test_aguiar_follows_from_compat():
    # every sampled triple passing the three compatibilities also passes the
    # induced-bracket relations (they are consequences, checked on the nose)
    rng = random.Random(5)
    model = FormsModel(3)
    for trial in range(100):
        args = [model.sample_form(rng) for _ in range(3)]
        compat_ok = all(not axiom_defect(model, ax, args)
                        for ax in (AxiomId.COMPAT_A, AxiomId.COMPAT_B, AxiomId.COMPAT_C))
        assert compat_ok
        assert not axiom_defect(model, AxiomId.AGUIAR_1, args)
        assert not axiom_defect(model, AxiomId.AGUIAR_2, args)


def test_axioms_trivial_on_zero_argument(m2):
    u1 = one_term(m2, (1, 0), ())
    for axiom in (AxiomId.ZINBIEL, AxiomId.COMPAT_B):
        assert not axiom_defect(m2, axiom, [u1, {}, u1])


def test_symmetrised_wedge_is_associative_and_commutative():
    # the dot product x.y = x^y + (-1)^{|x||y|} y^x on sampled triples
    rng = random.Random(31)
    for n in (2, 3):
        model = FormsModel(n)
        for trial in range(60):
            x, y, z = (model.sample_form(rng) for _ in range(3))
            dx, dy = x.homogeneous_degree(BASE), y.homogeneous_degree(BASE)
            sign = -1 if (dx & 1 and dy & 1) else 1
            lhs = model.dot(x, y)
            rhs = model.dot(y, x).scaled(sign)
            assert lhs == rhs
            assert model.dot(model.dot(x, y), z) == model.dot(x, model.dot(y, z))


def test_exterior_derivative_properties():
    # d o d = 0 and d derives the exterior product; checked on monomial atoms
    model = FormsModel(3, exterior_differential=True)
    rng = random.Random(17)
    for trial in range(60):
        x = model.sample_form(rng)
        dd = model.differential(model.differential(x))
        assert dd.is_zero()
        y = model.sample_form(rng)
        dx_y = model.diamond(model.differential(x), y)
        kx = x.homogeneous_degree(BASE) - 1  # form degree
        sign = -1 if kx & 1 else 1
        x_dy = model.diamond(x, model.differential(y))
        lhs = model.differential(model.diamond(x, y))
        assert lhs == dx_y + x_dy.scaled(sign)


def test_differential_admission_gate():
    # the zero differential is always admitted; the exterior derivative
    # derives the model wedge but fails the diamond derivation sign, so a
    # forms model declaring it is rejected
    assert admit_differential(FormsModel(2), random.Random(1))
    exterior = FormsModel(2, exterior_differential=True)
    assert not admit_differential(exterior, random.Random(1))
    # the wedge half alone does pass
    rng = random.Random(2)
    for _ in range(25):
        x = exterior.sample_form(rng, max_poly_degree=2)
        y = exterior.sample_form(rng, max_poly_degree=2)
        assert not axiom_defect(exterior, AxiomId.D_DERIV_WEDGE, [x, y])


def test_wedge_scale_mutation_breaks_zinbiel():
    model = FormsModel(3)
    x = one_term(model, (1, 0, 0), ())
    y = one_term(model, (0, 1, 0), ())
    z = one_term(model, (0, 0, 1), ())
    with mutant("wedge_scale_drop"):
        assert axiom_defect(model, AxiomId.ZINBIEL, [x, y, z])
        # and compat_b cannot see the missing scalar (same wedge degree on both sides)
        rng = random.Random(4)
        for _ in range(20):
            args = [model.sample_form(rng) for _ in range(3)]
            assert not axiom_defect(model, AxiomId.COMPAT_B, args)


def test_formal_model_rejects_algebra_ops():
    model = FormalModel()
    g = model.generator("x", 2)
    with pytest.raises(UnsupportedModelError):
        model.wedge_atoms(g, g)
    with pytest.raises(UnsupportedModelError):
        axiom_defect(model, AxiomId.ZINBIEL, [{g: Fraction(1)}] * 3)


def test_axiom_argument_validation(m2):
    u1 = one_term(m2, (1, 0), ())
    with pytest.raises(ValueError):
        axiom_defect(m2, AxiomId.ZINBIEL, [u1, u1])
    mixed = dict(one_term(m2, (1, 0), ()))
    mixed.update(one_term(m2, (0, 0), (1,)))
    with pytest.raises(SchemaError):
        axiom_defect(m2, AxiomId.LEIBNIZ_GERST, [mixed, u1, u1])


def test_sampler_is_deterministic():
    m = FormsModel(2)
    a = m.sample_form(random.Random("seed-string"))
    b = m.sample_form(random.Random("seed-string"))
    assert a == b
    # homogeneous with small integer coefficients
    rng = random.Random(23)
    for _ in range(50):
        combo = m.sample_form(rng)
        assert combo.homogeneous_degree(BASE) is not None
        # integer coefficients; up to three monomial draws may accumulate
        assert all(c.denominator == 1 and abs(c) <= 9 for c in combo.terms.values())
        assert 1 <= len(combo) <= 3


PACKAGE_MODULES = sorted(Path(pregerst.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_compiles_with_warnings_as_errors(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _bound_names(tree, skip_imports):
    """Names bound at the top level of a module: each import unless skipped,
    and each private ``_name`` defined or assigned there."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if skip_imports or getattr(node, "module", None) == "__future__":
                continue
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [n for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def _reads(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)}


def _imported_from(module, trees):
    """Names other package modules import from the module or read as an
    attribute of anything."""
    out = set()
    for other, tree in trees.items():
        if other == module:
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == module:
                out.update(a.name for a in n.names)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_leaves_no_orphan_import_or_private_name(path):
    # the imports of __init__ are the package's public API
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE_MODULES}
    tree = trees[path.stem]
    used = _reads(tree) | _imported_from(path.stem, trees)
    orphans = [n for n in _bound_names(tree, path.stem == "__init__") if n not in used]
    assert not orphans, "%s binds names nothing reads: %s" % (path.name, orphans)


def test_foreign_atoms_are_rejected_cleanly(m2):
    # atom names are self-describing, so an atom of a larger model names a
    # coordinate this model does not have; that is a schema error, and no key
    # is cached for it
    m3 = FormsModel(3)
    for exps, dxs in (((0, 0, 1), ()), ((0, 0, 0), (3,)), ((1, 0, 0), (2, 3))):
        foreign = m3.atom(exps, dxs)
        for _ in range(2):
            with pytest.raises(SchemaError):
                m2.key(foreign)
        with pytest.raises(SchemaError):
            m2.diamond_atoms(m2.atom((1, 0), ()), foreign)
    for name in ("u0", "ux", "du", "v1"):
        with pytest.raises(SchemaError):
            m2.key(Generator(name, 1 + name.startswith("du")))
    # an atom within range still travels between models
    assert m2.key(m3.atom((1, 1, 0), (2,))) == ((1, 1), (2,))
