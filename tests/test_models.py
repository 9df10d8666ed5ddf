"""The differential-forms model and the algebra axiom suites."""

import ast
import hashlib
import itertools
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import pregerst
from pregerst.envelopes import EnvelopeContext, q_total
from pregerst.errors import SchemaError, TermBudgetExceeded
from pregerst.grading import BASE, Generator
from pregerst.models import (
    AxiomId,
    FormalModel,
    FormsModel,
    admit_differential,
    axiom_defect,
)
from pregerst.mutations import mutant
from pregerst.words import Element, Gen, Pair, Sym, Tensor, element_to_text, get_term_cap, set_term_cap

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


# -- the textbook exterior algebra on (exps, sorted dx tuple) keys -----------

def reference_ext_wedge(k1, k2):
    """Exterior product of two monomial keys: (sign, key) or None."""
    (e1, d1), (e2, d2) = k1, k2
    if set(d1) & set(d2):
        return None
    crossings = 0
    for i in d1:
        for j in d2:
            if j < i:
                crossings += 1
    sign = -1 if crossings & 1 else 1
    exps = tuple(a + b for a, b in zip(e1, e2))
    return sign, (exps, tuple(sorted(d1 + d2)))


def reference_ext_d(n, key):
    """Exterior derivative of a monomial key: list of (coeff, key)."""
    exps, dxs = key
    out = []
    for i in range(1, n + 1):
        e = exps[i - 1]
        if e == 0 or i in dxs:
            continue
        before = sum(1 for j in dxs if j < i)
        sign = -1 if before & 1 else 1
        new_exps = tuple(x - 1 if j == i - 1 else x for j, x in enumerate(exps))
        out.append((e * sign, (new_exps, tuple(sorted(dxs + (i,))))))
    return out


def reference_products(model, a, b):
    """wedge_atoms, diamond_atoms and differential_atom(a) from the reference."""
    n, ka, kb = model.n_coords, model.key(a), model.key(b)
    wedge, diamond, d = Element(), Element(), Element()
    scale = 1 if b.degree == 1 else Fraction(1, b.degree)
    for dc, dk in reference_ext_d(n, kb):
        res = reference_ext_wedge(ka, dk)
        if res is not None:
            wedge.add_term(model.atom(*res[1]), scale * dc * res[0])
    res = reference_ext_wedge(ka, kb)
    if res is not None:
        diamond.add_term(model.atom(*res[1]), res[0])
    for c, key in reference_ext_d(n, ka):
        d.add_term(model.atom(*key), c)
    return wedge, diamond, d


def typed_terms(elem):
    return [(k, c, type(c)) for k, c in elem.terms.items()]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_products_match_the_textbook_exterior_algebra(n):
    model = FormsModel(n, exterior_differential=True)
    atoms = [model.atom(exps, dxs)
             for exps in itertools.product(range(3), repeat=n)
             for k in range(n + 1) for dxs in itertools.combinations(range(1, n + 1), k)]
    # every atom once on the left, then seeded pairs up to 1500 in all
    rng = random.Random(n)
    pairs = [(a, rng.choice(atoms)) for a in atoms]
    pairs += [(rng.choice(atoms), rng.choice(atoms)) for _ in range(1500 - len(pairs))]
    for a, b in pairs:
        wedge, diamond, d = reference_products(model, a, b)
        assert typed_terms(model.wedge_atoms(a, b)) == typed_terms(wedge), (a, b)
        assert typed_terms(model.diamond_atoms(a, b)) == typed_terms(diamond), (a, b)
        assert typed_terms(model.differential_atom(a)) == typed_terms(d), a
    # the sign reads the two masks alone, so no table sized by n holds it
    big = FormsModel(64)
    du1, du64 = big.atom((0,) * 64, (1,)), big.atom((0,) * 64, (64,))
    assert element_to_text(big.diamond_atoms(du64, du1)) == "-1/1 * du1.du64"


def test_wedge_derives_each_right_atom_once_per_call(monkeypatch):
    from pregerst import models

    model = FormsModel(3)
    rng = random.Random(909)
    derived = []

    def counted(record):
        derived.append(record)
        return d_terms(record)
    d_terms = models._d_terms
    monkeypatch.setattr(models, "_d_terms", counted)
    for _ in range(30):
        x = model.sample_form(rng, max_terms=4)
        y = model.sample_form(rng, max_terms=4)
        derived.clear()
        product = model.wedge(x, y)
        assert len(derived) == len(set(derived)) <= len(y)
        # the multilinear extension of the atom products
        expected = Element()
        for a, ca in x.items():
            for b, cb in y.items():
                for g, c in model.wedge_atoms(a, b).items():
                    expected.add_term(g, ca * cb * c)
        assert product == expected


def test_model_products_keep_the_term_cap():
    model = FormsModel(3)
    u1, u2 = model.atom((1, 0, 0), ()), model.atom((0, 1, 0), ())
    x, y = {u1: 1, u2: 2}, {model.atom((1, 1, 1), ()): 1}
    cap = get_term_cap()
    try:
        set_term_cap(5)
        with pytest.raises(TermBudgetExceeded,
                           match="^intermediate element has 6 terms, exceeding the cap of 5$"):
            model.wedge(x, y)
        set_term_cap(6)
        assert len(model.wedge(x, y)) == 6
    finally:
        set_term_cap(cap)


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
    # derives the model wedge, and the diamond with the shifted sign, so a
    # forms model declaring it is admitted
    assert admit_differential(FormsModel(2), random.Random(1))
    for n in (1, 2, 3):
        for seed in (1, 2, 3):
            exterior = FormsModel(n, exterior_differential=True)
            assert admit_differential(exterior, random.Random(seed))
    # each half on its own
    exterior = FormsModel(2, exterior_differential=True)
    rng = random.Random(2)
    for _ in range(25):
        x = exterior.sample_form(rng, max_poly_degree=2)
        y = exterior.sample_form(rng, max_poly_degree=2)
        assert not axiom_defect(exterior, AxiomId.D_DERIV_WEDGE, [x, y])
        assert not axiom_defect(exterior, AxiomId.D_DERIV_DIAMOND, [x, y])


def test_diamond_derivation_axiom_is_what_q_squared_needs():
    # with a free d, the corestriction of Q^2 on P(T(a); S(T(b))) is
    # d(a<>b) - da<>b - (-1)^{|a|-1} a<>db up to a scalar: on such pairs the
    # diamond-derivation axiom holds exactly where Q^2 vanishes, and the
    # exterior derivative gives Q^2 = 0 on every one
    model = FormsModel(2, exterior_differential=True)
    rng = random.Random(7)
    for _ in range(60):
        a = model.sample_atom(rng, max_poly_degree=2)
        b = model.sample_atom(rng, max_poly_degree=2)
        pair = Element.single(Pair(Tensor((Gen(a),)), Sym((Tensor((Gen(b),)),))))
        ctx = EnvelopeContext(model)
        assert q_total(ctx, q_total(ctx, pair)).is_zero()
        assert axiom_defect(model, AxiomId.D_DERIV_DIAMOND,
                            [Element.single(a), Element.single(b)]).is_zero()


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


def test_formal_model_has_free_operations():
    model = FormalModel()
    a, b, c = Generator("a", 1), Generator("b", 2), Generator("c", 1)
    assert model.wedge_atoms(a, b) == Element.single(Generator("(a^b)", 3))
    assert model.diamond_atoms(a, b) == Element.single(Generator("(a<>b)", 2))
    assert model.wedge(model.wedge({a: 1}, {b: 1}), {c: 1}) == \
        Element.single(Generator("((a^b)^c)", 4))
    assert model.differential({a: 1}).is_zero() and not model.has_differential
    # no relation holds, so the defect of an axiom is its relation
    defect = axiom_defect(model, AxiomId.ZINBIEL, [{a: 1}, {b: 1}, {c: 1}])
    assert element_to_text(defect) == (
        "1/1 * ((a^b)^c) + -1/1 * (a^(b^c)) + -1/1 * (a^(c^b))")


def test_axiom_argument_validation(m2):
    u1 = one_term(m2, (1, 0), ())
    with pytest.raises(ValueError, match="axiom zinbiel takes 3 arguments"):
        axiom_defect(m2, AxiomId.ZINBIEL, [u1, u1])
    with pytest.raises(ValueError, match="axiom d_deriv_wedge takes 2 arguments"):
        axiom_defect(m2, AxiomId.D_DERIV_WEDGE, [u1, u1, u1])
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


SAMPLER_DRAWS_SHA256 = "2a530f94c2a60b9c164706725a369d43d13d941ee95bbf2f3ad45152bbf642e0"


def test_sampler_draws_are_pinned():
    # each draw is followed by getrandbits, so the digest also pins how many
    # values every sampler takes from the generator
    lines = []
    for n in (1, 2, 3, 4):
        for max_poly in (0, 1, 3):
            for form_degree in (None,) + tuple(range(n + 1)):
                model = FormsModel(n)
                rng = random.Random("%d-%d-%s" % (n, max_poly, form_degree))
                for _ in range(6):
                    form = model.sample_form(rng, form_degree, max_poly)
                    atom = model.sample_atom(rng, form_degree, max_poly)
                    for a in list(form.terms) + [atom]:
                        assert model.atom(*model.key(a)) == a
                    lines.append("%s | %s %d | %d" % (
                        element_to_text(form), atom.name, atom.degree, rng.getrandbits(32)))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLER_DRAWS_SHA256


PACKAGE_MODULES = sorted(Path(pregerst.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_compiles_with_warnings_as_errors(path):
    source = path.read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, str(path), "exec")
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(source, str(path), feature_version=(3, 10))


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


def test_atom_refuses_input_it_would_have_to_rewrite(m2):
    # a float exponent or index is not truncated
    for exps, dxs in (((1.5, 0), ()), ((1.0, 0), ()), ((0, 0), (1.0,))):
        with pytest.raises(TypeError):
            m2.atom(exps, dxs)
    # du1 /\ du1 = 0 is not a monomial, so a repeated index is not dropped
    for dxs in ((1, 1), (2, 1, 2)):
        with pytest.raises(ValueError):
            m2.atom((0, 0), dxs)
    # index-like integers and any order of distinct indices are fine
    assert m2.atom([True, 0], (2, 1)) == m2.atom((1, 0), (1, 2))


def test_key_refuses_wrong_degree_and_non_canonical_names(m2):
    # the same answer on a fresh model and once the monomial is interned
    bad = [Generator("u1", 5), Generator("du1", 1), Generator("du2.u1", 2),
           Generator("u01", 1), Generator("u1.du01", 2), Generator("du1.du1", 3)]
    for interned in (False, True):
        if interned:
            m2.atom((1, 0), ())
            m2.atom((0, 0), (1,))
            m2.atom((1, 0), (2,))
        for gen in bad:
            with pytest.raises(SchemaError):
                m2.key(gen)
            with pytest.raises(SchemaError):
                m2.diamond_atoms(gen, m2.atom((0, 1), ()))
    assert m2.key(Generator("u1.du2", 2)) == ((1, 0), (2,))
