r"""Concrete graded algebras plugged into the coalgebraic machinery.

An AlgebraModel supplies two bilinear operations on homogeneous atoms, a
wedge of base degree 0 (the Zinbiel candidate) and a diamond of base degree
-1 (the pre-Lie-on-the-shift candidate), plus an optional differential.
Operations take atoms (single generators) and return exact linear
combinations of atoms, so everything extends multilinearly and identities
that hold for the underlying algebra hold termwise after expansion.

FormsModel: exterior differential forms with polynomial coefficients over
the rationals in n variables.  A monomial atom is u^a dx_I with base degree
|I| + 1.  The model wedge is x ^ y = (1/|y|) x /\ dy and the diamond is the
plain exterior product; the exterior derivative itself is kept available but
is NOT installed as the model differential (it fails the diamond-derivation
admission check, see admit_differential), so conforming runs use d = 0.

FormalModel: named abstract generators; any operation beyond degree
bookkeeping is rejected.  It serves the model-independent coalgebra laws.

check_axiom evaluates one algebra axiom on a pair or triple of homogeneous
combos and returns the exact defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import SchemaError, UnsupportedModelError
from .grading import Generator, GeneratorRegistry
from .mutations import NO_MUTATIONS

# a combo is a dict Generator -> coefficient (an exact int or Fraction) with no
# zero entries
Combo = dict


def _combo_add_term(acc: Combo, gen: Generator, coeff):
    if coeff == 0:
        return
    cur = acc.get(gen)
    if cur is None:
        acc[gen] = coeff
    else:
        cur = cur + coeff
        if cur == 0:
            del acc[gen]
        else:
            acc[gen] = cur


def combo_add(a: Combo, b: Combo, scale=1) -> Combo:
    out = dict(a)
    for g, c in b.items():
        _combo_add_term(out, g, c * scale)
    return out


def combo_scale(a: Combo, scale) -> Combo:
    if type(scale) is not int:
        scale = Fraction(scale)
    if scale == 0:
        return {}
    return {g: c * scale for g, c in a.items()}


def combo_degree(a: Combo):
    """Common base degree of a homogeneous combo; None for zero or mixed."""
    degs = {g.degree for g in a}
    if len(degs) == 1:
        return degs.pop()
    return None


def bilinear(op, a: Combo, b: Combo) -> Combo:
    out = {}
    for g1, c1 in a.items():
        for g2, c2 in b.items():
            for g3, c3 in op(g1, g2).items():
                _combo_add_term(out, g3, c1 * c2 * c3)
    return out


def linear(op, a: Combo) -> Combo:
    out = {}
    for g1, c1 in a.items():
        for g2, c2 in op(g1).items():
            _combo_add_term(out, g2, c1 * c2)
    return out


class AlgebraModel:
    """Base interface; subclasses fill in atom-level operations."""

    name = "abstract"

    def __init__(self):
        self.registry = GeneratorRegistry()

    def wedge_atoms(self, a: Generator, b: Generator) -> Combo:
        raise UnsupportedModelError("%s model has no wedge" % self.name)

    def diamond_atoms(self, a: Generator, b: Generator) -> Combo:
        raise UnsupportedModelError("%s model has no diamond" % self.name)

    def differential_atom(self, a: Generator) -> Combo:
        return {}

    @property
    def has_differential(self) -> bool:
        return False

    # combo-level lifts
    def wedge(self, a: Combo, b: Combo) -> Combo:
        return bilinear(self.wedge_atoms, a, b)

    def diamond(self, a: Combo, b: Combo) -> Combo:
        return bilinear(self.diamond_atoms, a, b)

    def differential(self, a: Combo) -> Combo:
        return linear(self.differential_atom, a)

    def bracket(self, a: Combo, b: Combo) -> Combo:
        """a<>b - (-1)^{(|a|-1)(|b|-1)} b<>a, always expanded through diamond."""
        if not a or not b:
            return {}
        da, db = combo_degree(a), combo_degree(b)
        if da is None or db is None:
            raise SchemaError("bracket needs homogeneous arguments")
        sign = -1 if ((da - 1) & 1 and (db - 1) & 1) else 1
        return combo_add(self.diamond(a, b), self.diamond(b, a), -sign)

    def dot(self, a: Combo, b: Combo) -> Combo:
        """Symmetrised wedge a.b = a^b + (-1)^{|a||b|} b^a."""
        if not a or not b:
            return {}
        da, db = combo_degree(a), combo_degree(b)
        if da is None or db is None:
            raise SchemaError("dot needs homogeneous arguments")
        sign = -1 if (da & 1 and db & 1) else 1
        return combo_add(self.wedge(a, b), self.wedge(b, a), sign)


class FormalModel(AlgebraModel):
    """Abstract generators with assigned base degrees; coproduct-only."""

    name = "formal"

    def generator(self, name: str, degree: int) -> Generator:
        return self.registry.declare(name, degree)


class FormsModel(AlgebraModel):
    """Polynomial-coefficient exterior forms on n coordinates over Q.

    Atoms are monomials u1^e1 ... un^en du_{i1} ... du_{ik} with base degree
    k + 1 (a k-form has base degree k + 1; there are no degree-0 elements).
    Atom names spell the monomial: 'u1.u1.du2' is u1^2 du2, 'one' is the
    constant function 1.
    """

    name = "forms"

    def __init__(self, n_coords: int, mutations=NO_MUTATIONS,
                 exterior_differential: bool = False):
        super().__init__()
        if n_coords < 1:
            raise ValueError("need at least one coordinate")
        self.n_coords = n_coords
        self.mutations = mutations
        self.exterior_differential = exterior_differential
        self._keys = {}

    # -- monomial plumbing ---------------------------------------------------

    def atom(self, exps, dxs) -> Generator:
        """Intern the monomial with the given exponent vector and dx set."""
        exps = tuple(int(e) for e in exps)
        dxs = tuple(sorted(set(int(i) for i in dxs)))
        if len(exps) != self.n_coords:
            raise ValueError("exponent vector has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        if any(i < 1 or i > self.n_coords for i in dxs):
            raise ValueError("dx index out of range")
        name = self._name(exps, dxs)
        gen = self.registry.declare(name, len(dxs) + 1)
        self._keys[name] = (exps, dxs)
        return gen

    @staticmethod
    def _name(exps, dxs) -> str:
        parts = []
        for i, e in enumerate(exps, start=1):
            parts.extend(["u%d" % i] * e)
        parts.extend("du%d" % i for i in dxs)
        return ".".join(parts) if parts else "one"

    def key(self, gen: Generator):
        try:
            return self._keys[gen.name]
        except KeyError:
            pass
        # names are self-describing, so atoms travel between model instances
        exps = [0] * self.n_coords
        dxs = []
        if gen.name != "one":
            for part in gen.name.split("."):
                if part.startswith("du"):
                    dxs.append(int(part[2:]))
                elif part.startswith("u"):
                    exps[int(part[1:]) - 1] += 1
                else:
                    raise SchemaError("atom %r does not belong to a forms model" % gen.name)
        key = (tuple(exps), tuple(sorted(dxs)))
        if len(dxs) + 1 != gen.degree:
            raise SchemaError("atom %r has inconsistent degree" % gen.name)
        self._keys[gen.name] = key
        return key

    # -- exterior algebra on monomials ----------------------------------------

    def _ext_wedge(self, k1, k2):
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

    def _ext_d(self, key):
        """Exterior derivative of a monomial key: list of (coeff, key)."""
        exps, dxs = key
        out = []
        for i in range(1, self.n_coords + 1):
            e = exps[i - 1]
            if e == 0 or i in dxs:
                continue
            before = sum(1 for j in dxs if j < i)
            sign = -1 if before & 1 else 1
            new_exps = tuple(x - 1 if j == i - 1 else x for j, x in enumerate(exps))
            out.append((e * sign, (new_exps, tuple(sorted(dxs + (i,))))))
        return out

    # -- the model operations --------------------------------------------------

    def diamond_atoms(self, a: Generator, b: Generator) -> Combo:
        res = self._ext_wedge(self.key(a), self.key(b))
        if res is None:
            return {}
        sign, key = res
        return {self.atom(*key): sign}

    def wedge_atoms(self, a: Generator, b: Generator) -> Combo:
        ka, kb = self.key(a), self.key(b)
        if self.mutations.wedge_scale_drop or b.degree == 1:
            scale = 1
        else:
            scale = Fraction(1, b.degree)
        out = {}
        for dc, dk in self._ext_d(kb):
            res = self._ext_wedge(ka, dk)
            if res is None:
                continue
            sign, key = res
            _combo_add_term(out, self.atom(*key), scale * dc * sign)
        return out

    def differential_atom(self, a: Generator) -> Combo:
        if not self.exterior_differential:
            return {}
        return {self.atom(*key): c for c, key in self._ext_d(self.key(a))}

    @property
    def has_differential(self) -> bool:
        return self.exterior_differential

    # -- deterministic sampling -------------------------------------------------

    def sample_form(self, rng, form_degree=None, max_poly_degree=3,
                    max_terms=3) -> Combo:
        """Homogeneous combo of 1..max_terms monomials of one form degree,
        integer coefficients in [-3, 3] \\ {0}; deterministic in rng state."""
        n = self.n_coords
        if form_degree is None:
            form_degree = rng.randint(0, n)
        out = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * n
            budget = rng.randint(0, max_poly_degree)
            for _ in range(budget):
                exps[rng.randrange(n)] += 1
            dxs = rng.sample(range(1, n + 1), form_degree)
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            _combo_add_term(out, self.atom(exps, dxs), coeff)
        if not out:
            out = {self.atom([0] * n, rng.sample(range(1, n + 1), form_degree)): 1}
        return out

    def sample_atom(self, rng, form_degree=None, max_poly_degree=3) -> Generator:
        n = self.n_coords
        if form_degree is None:
            form_degree = rng.randint(0, n)
        exps = [0] * n
        for _ in range(rng.randint(0, max_poly_degree)):
            exps[rng.randrange(n)] += 1
        dxs = rng.sample(range(1, n + 1), form_degree)
        return self.atom(exps, dxs)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

class AxiomId(Enum):
    ZINBIEL = "zinbiel"
    PRELIE = "prelie"
    COMPAT_A = "compat_a"
    COMPAT_B = "compat_b"
    COMPAT_C = "compat_c"
    DERIVED_1 = "derived_1"
    DERIVED_2 = "derived_2"
    LEIBNIZ_GERST = "leibniz_gerst"
    AGUIAR_1 = "aguiar_1"
    AGUIAR_2 = "aguiar_2"
    D_DERIV_WEDGE = "d_deriv_wedge"
    D_DERIV_DIAMOND = "d_deriv_diamond"


AXIOM_ARITY = {
    AxiomId.ZINBIEL: 3,
    AxiomId.PRELIE: 3,
    AxiomId.COMPAT_A: 3,
    AxiomId.COMPAT_B: 3,
    AxiomId.COMPAT_C: 3,
    AxiomId.DERIVED_1: 3,
    AxiomId.DERIVED_2: 3,
    AxiomId.LEIBNIZ_GERST: 3,
    AxiomId.AGUIAR_1: 3,
    AxiomId.AGUIAR_2: 3,
    AxiomId.D_DERIV_WEDGE: 2,
    AxiomId.D_DERIV_DIAMOND: 2,
}


def _sign(exp: int) -> int:
    return -1 if exp & 1 else 1


def axiom_defect(model: AlgebraModel, axiom: AxiomId, args) -> Combo:
    """Exact defect of one axiom on homogeneous combos; zero dict iff it holds."""
    if isinstance(model, FormalModel):
        raise UnsupportedModelError("algebra axioms need a concrete model")
    args = list(args)
    if len(args) != AXIOM_ARITY[axiom]:
        raise ValueError("axiom %s takes %d arguments" % (axiom.value, AXIOM_ARITY[axiom]))
    degs = [combo_degree(a) for a in args]
    if any(d is None and a for d, a in zip(degs, args)) :
        raise SchemaError("axiom arguments must be homogeneous")
    for a, d in zip(args, degs):
        if not a:
            return {}
    w, dm, br, dot, dd = model.wedge, model.diamond, model.bracket, model.dot, model.differential
    if axiom is AxiomId.ZINBIEL:
        x, y, z = args
        lhs = w(w(x, y), z)
        rhs = combo_add(w(x, w(y, z)), w(x, w(z, y)), _sign(degs[1] * degs[2]))
        return combo_add(lhs, rhs, -1)
    if axiom is AxiomId.PRELIE:
        x, y, z = args
        lhs = combo_add(dm(dm(x, y), z), dm(x, dm(y, z)), -1)
        rhs = combo_add(dm(dm(x, z), y), dm(x, dm(z, y)), -1)
        return combo_add(lhs, rhs, -_sign((degs[1] - 1) * (degs[2] - 1)))
    if axiom is AxiomId.COMPAT_A:
        x, y, z = args
        return combo_add(w(x, dm(y, z)), w(x, dm(z, y)),
                         -_sign((degs[1] - 1) * (degs[2] - 1)))
    if axiom is AxiomId.COMPAT_B:
        x, y, z = args
        return combo_add(dm(x, w(y, z)), w(dm(x, y), z), -1)
    if axiom is AxiomId.COMPAT_C:
        x, y, z = args
        return combo_add(w(dm(x, y), z), dm(w(x, z), y),
                         -_sign((degs[1] - 1) * degs[2]))
    if axiom is AxiomId.DERIVED_1:
        x, y, z = args
        return w(x, br(y, z))
    if axiom is AxiomId.DERIVED_2:
        x, y, z = args
        return combo_add(br(x, w(y, z)), w(br(x, y), z), -1)
    if axiom is AxiomId.LEIBNIZ_GERST:
        x, y, z = args
        lhs = br(x, dot(y, z))
        rhs = combo_add(dot(br(x, y), z), dot(y, br(x, z)),
                        _sign(degs[1] * (degs[0] - 1)))
        return combo_add(lhs, rhs, -1)
    if axiom is AxiomId.AGUIAR_1:
        # [x,y]^z = x<>(y^z) - (-1)^{(|x|-1)(|y|-1)} y<>(x^z); the second term
        # follows from compat B and C (expand the bracket, rewrite each
        # (..<>..)^z through compat C, then pull the wedge inside with B).
        x, y, z = args
        lhs = w(br(x, y), z)
        rhs = combo_add(dm(x, w(y, z)), dm(y, w(x, z)),
                        -_sign((degs[0] - 1) * (degs[1] - 1)))
        return combo_add(lhs, rhs, -1)
    if axiom is AxiomId.AGUIAR_2:
        # (x.y)<>z = (-1)^{(|z|-1)|y|} x<>(z^y) + (-1)^{|x||y|+(|z|-1)|x|} y<>(z^x),
        # again a consequence of compat B and C applied to both halves of the dot.
        x, y, z = args
        lhs = dm(dot(x, y), z)
        rhs = combo_add(
            combo_scale(dm(x, w(z, y)), _sign((degs[2] - 1) * degs[1])),
            dm(y, w(z, x)),
            _sign(degs[0] * degs[1] + (degs[2] - 1) * degs[0]),
        )
        return combo_add(lhs, rhs, -1)
    if axiom is AxiomId.D_DERIV_WEDGE:
        x, y = args
        lhs = dd(w(x, y))
        rhs = combo_add(w(dd(x), y), w(x, dd(y)), _sign(degs[0]))
        return combo_add(lhs, rhs, -1)
    if axiom is AxiomId.D_DERIV_DIAMOND:
        x, y = args
        lhs = dd(dm(x, y))
        rhs = combo_add(dm(dd(x), y), dm(x, dd(y)), _sign(degs[0]))
        return combo_add(lhs, rhs, -1)
    raise ValueError("unknown axiom %r" % axiom)


@dataclass
class AxiomCheck:
    axiom: AxiomId
    input_text: str
    defect: Combo

    @property
    def ok(self) -> bool:
        return not self.defect


def combo_to_text(a: Combo) -> str:
    if not a:
        return "0"
    parts = []
    for gen in sorted(a, key=lambda g: g.name):
        c = a[gen]
        parts.append("%d/%d * %s" % (c.numerator, c.denominator, gen.name))
    return " + ".join(parts)


def check_axiom(model: AlgebraModel, axiom: AxiomId, args) -> AxiomCheck:
    text = "; ".join(combo_to_text(a) for a in args)
    return AxiomCheck(axiom, text, axiom_defect(model, axiom, args))


def admit_differential(model: AlgebraModel, rng, samples: int = 25,
                       max_poly_degree: int = 2) -> bool:
    """A model differential is admitted only if it derives both the wedge and
    the diamond on sampled homogeneous pairs.  Models with d = 0 pass trivially."""
    if not model.has_differential:
        return True
    for _ in range(samples):
        x = model.sample_form(rng, max_poly_degree=max_poly_degree)
        y = model.sample_form(rng, max_poly_degree=max_poly_degree)
        if axiom_defect(model, AxiomId.D_DERIV_WEDGE, [x, y]):
            return False
        if axiom_defect(model, AxiomId.D_DERIV_DIAMOND, [x, y]):
            return False
    return True
