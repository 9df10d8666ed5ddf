r"""Concrete graded algebras plugged into the coalgebraic machinery.

An AlgebraModel supplies two operations on homogeneous atoms, each linear in
both arguments: a wedge of base degree 0 (the Zinbiel candidate) and a
diamond of base degree -1 (the pre-Lie-on-the-shift candidate), plus an
optional differential.  Operations take atoms (single generators) and return
exact linear combinations of atoms, Elements keyed by Generator, so
everything extends multilinearly and identities that hold for the underlying
algebra hold termwise after expansion.  The extended operations accept any
mapping atom -> coefficient and return Elements.

FormsModel: exterior differential forms with polynomial coefficients over
the rationals in n variables.  A monomial atom is u^a dx_I with base degree
|I| + 1.  The model wedge is x ^ y = (1/|y|) x /\ dy and the diamond is the
plain exterior product.  The exterior derivative derives both with the signs
admit_differential checks, d(x^y) = dx^y + (-1)^{|x|} x^dy and, the diamond
having degree -1, d(x<>y) = dx<>y + (-1)^{|x|-1} x<>dy; it is installed only
when asked for (exterior_differential=True), so the suites run with d = 0.

FormalModel: named abstract generators; any operation beyond degree
bookkeeping is rejected.  It serves the model-independent coalgebra laws.

axiom_defect evaluates one algebra axiom on a pair or triple of homogeneous
elements and returns the exact defect.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction

from .errors import SchemaError, UnsupportedModelError
from .grading import BASE, Generator, GeneratorRegistry
from .words import Element


_COEFFS = (-3, -2, -1, 1, 2, 3)    # sample_form's coefficients


def _element(a) -> Element:
    """An element as it is; any other mapping atom -> coefficient wrapped."""
    return a if type(a) is Element else Element(a)


class AlgebraModel:
    """Base interface; subclasses fill in atom-level operations."""

    name = "abstract"

    def __init__(self):
        self.registry = GeneratorRegistry()

    def wedge_atoms(self, a: Generator, b: Generator) -> Element:
        raise UnsupportedModelError("%s model has no wedge" % self.name)

    def diamond_atoms(self, a: Generator, b: Generator) -> Element:
        raise UnsupportedModelError("%s model has no diamond" % self.name)

    def differential_atom(self, a: Generator) -> Element:
        return Element()

    @property
    def has_differential(self) -> bool:
        return False

    # extensions of the atom-level operations
    def wedge(self, a, b) -> Element:
        return _element(a).map_pairs(_element(b), self.wedge_atoms)

    def diamond(self, a, b) -> Element:
        return _element(a).map_pairs(_element(b), self.diamond_atoms)

    def differential(self, a) -> Element:
        return _element(a).map_words(self.differential_atom)

    def bracket(self, a, b) -> Element:
        """a<>b - (-1)^{(|a|-1)(|b|-1)} b<>a, always expanded through diamond."""
        a, b = _element(a), _element(b)
        if a.is_zero() or b.is_zero():
            return Element()
        da, db = a.homogeneous_degree(BASE), b.homogeneous_degree(BASE)
        if da is None or db is None:
            raise SchemaError("bracket needs homogeneous arguments")
        sign = -1 if ((da - 1) & 1 and (db - 1) & 1) else 1
        return self.diamond(a, b) - self.diamond(b, a).scaled(sign)

    def dot(self, a, b) -> Element:
        """Symmetrised wedge a.b = a^b + (-1)^{|a||b|} b^a."""
        a, b = _element(a), _element(b)
        if a.is_zero() or b.is_zero():
            return Element()
        da, db = a.homogeneous_degree(BASE), b.homogeneous_degree(BASE)
        if da is None or db is None:
            raise SchemaError("dot needs homogeneous arguments")
        sign = -1 if (da & 1 and db & 1) else 1
        return self.wedge(a, b) + self.wedge(b, a).scaled(sign)


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

    def __init__(self, n_coords: int, exterior_differential: bool = False):
        super().__init__()
        if n_coords < 1:
            raise ValueError("need at least one coordinate")
        self.n_coords = n_coords
        self.exterior_differential = exterior_differential
        self._keys = {}     # atom -> monomial key
        self._atoms = {}    # monomial key -> atom

    # -- monomial plumbing ---------------------------------------------------

    def atom(self, exps, dxs) -> Generator:
        """Intern the monomial with the given exponent vector and dx indices."""
        exps = tuple(map(operator.index, exps))
        dxs = tuple(map(operator.index, dxs))
        if len(exps) != self.n_coords:
            raise ValueError("exponent vector has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        if any(i < 1 or i > self.n_coords for i in dxs):
            raise ValueError("dx index out of range")
        if len(set(dxs)) != len(dxs):
            raise ValueError("repeated dx index: the form is zero, not a monomial")
        dxs = tuple(sorted(dxs))
        gen = self.registry.declare(self._name(exps, dxs), len(dxs) + 1)
        self._keys[gen] = (exps, dxs)
        return gen

    def _atom_at(self, key):
        """The atom of a canonical monomial key, interned once per model."""
        gen = self._atoms.get(key)
        if gen is None:
            gen = self._atoms[key] = self.atom(*key)
        return gen

    @staticmethod
    def _name(exps, dxs) -> str:
        parts = []
        for i, e in enumerate(exps, start=1):
            parts.extend(["u%d" % i] * e)
        parts.extend("du%d" % i for i in dxs)
        return ".".join(parts) if parts else "one"

    def key(self, gen: Generator):
        # keyed by the whole atom, so a hit also vouches for the degree
        try:
            return self._keys[gen]
        except KeyError:
            pass
        # names are self-describing, so atoms travel between model instances
        exps = [0] * self.n_coords
        dxs = []
        if gen.name != "one":
            for part in gen.name.split("."):
                is_dx = part.startswith("du")
                index = part[2:] if is_dx else part[1:] if part.startswith("u") else ""
                if not index.isdecimal() or not 1 <= int(index) <= self.n_coords:
                    raise SchemaError("atom %r does not belong to a forms model on %d coordinates"
                                      % (gen.name, self.n_coords))
                if is_dx:
                    dxs.append(int(index))
                else:
                    exps[int(index) - 1] += 1
        key = (tuple(exps), tuple(sorted(dxs)))
        if len(set(dxs)) != len(dxs) or self._name(*key) != gen.name:
            raise SchemaError("atom %r is not the canonical name of a monomial" % gen.name)
        if len(dxs) + 1 != gen.degree:
            raise SchemaError("atom %r has inconsistent degree" % gen.name)
        self._keys[gen] = key
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

    def diamond_atoms(self, a: Generator, b: Generator) -> Element:
        res = self._ext_wedge(self.key(a), self.key(b))
        if res is None:
            return Element()
        sign, key = res
        return Element.single(self._atom_at(key), sign)

    def wedge_atoms(self, a: Generator, b: Generator) -> Element:
        ka, kb = self.key(a), self.key(b)
        scale = 1 if b.degree == 1 else Fraction(1, b.degree)
        out = Element()
        for dc, dk in self._ext_d(kb):
            res = self._ext_wedge(ka, dk)
            if res is None:
                continue
            sign, key = res
            out.add_term(self._atom_at(key), scale * dc * sign)
        return out

    def differential_atom(self, a: Generator) -> Element:
        out = Element()
        if self.exterior_differential:
            for c, key in self._ext_d(self.key(a)):
                out.add_term(self._atom_at(key), c)
        return out

    @property
    def has_differential(self) -> bool:
        return self.exterior_differential

    # -- deterministic sampling -------------------------------------------------

    def _sample_key(self, rng, form_degree, budget):
        """The key of a monomial of the given form degree and polynomial
        degree: one randrange per unit of budget, then a sample of dx indices."""
        n = self.n_coords
        exps = [0] * n
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        return tuple(exps), tuple(sorted(rng.sample(range(1, n + 1), form_degree)))

    def sample_form(self, rng, form_degree=None, max_poly_degree=3,
                    max_terms=3) -> Element:
        """Homogeneous element of 1..max_terms monomials of one form degree,
        integer coefficients in [-3, 3] \\ {0}; deterministic in rng state."""
        if form_degree is None:
            form_degree = rng.randint(0, self.n_coords)
        out = Element()
        for _ in range(rng.randint(1, max_terms)):
            key = self._sample_key(rng, form_degree, rng.randint(0, max_poly_degree))
            out.add_term(self._atom_at(key), rng.choice(_COEFFS))
        if out.is_zero():
            out = Element.single(self._atom_at(self._sample_key(rng, form_degree, 0)))
        return out

    def sample_atom(self, rng, form_degree=None, max_poly_degree=3) -> Generator:
        if form_degree is None:
            form_degree = rng.randint(0, self.n_coords)
        return self._atom_at(self._sample_key(rng, form_degree, rng.randint(0, max_poly_degree)))


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


def axiom_defect(model: AlgebraModel, axiom: AxiomId, args) -> Element:
    """Exact defect of one axiom on homogeneous elements; zero iff it holds."""
    if isinstance(model, FormalModel):
        raise UnsupportedModelError("algebra axioms need a concrete model")
    args = [_element(a) for a in args]
    if len(args) != AXIOM_ARITY[axiom]:
        raise ValueError("axiom %s takes %d arguments" % (axiom.value, AXIOM_ARITY[axiom]))
    degs = [a.homogeneous_degree(BASE) for a in args]
    if any(d is None and not a.is_zero() for d, a in zip(degs, args)):
        raise SchemaError("axiom arguments must be homogeneous")
    if any(a.is_zero() for a in args):
        return Element()
    w, dm, br, dot, dd = model.wedge, model.diamond, model.bracket, model.dot, model.differential
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
        # [x,y]^z = x<>(y^z) - (-1)^{(|x|-1)(|y|-1)} y<>(x^z); the second term
        # follows from compat B and C (expand the bracket, rewrite each
        # (..<>..)^z through compat C, then pull the wedge inside with B).
        x, y, z = args
        lhs = w(br(x, y), z)
        rhs = dm(x, w(y, z)) - dm(y, w(x, z)).scaled(_sign((degs[0] - 1) * (degs[1] - 1)))
        return lhs - rhs
    if axiom is AxiomId.AGUIAR_2:
        # (x.y)<>z = (-1)^{(|z|-1)|y|} x<>(z^y) + (-1)^{|x||y|+(|z|-1)|x|} y<>(z^x),
        # again a consequence of compat B and C applied to both halves of the dot.
        x, y, z = args
        lhs = dm(dot(x, y), z)
        rhs = (dm(x, w(z, y)).scaled(_sign((degs[2] - 1) * degs[1]))
               + dm(y, w(z, x)).scaled(_sign(degs[0] * degs[1] + (degs[2] - 1) * degs[0])))
        return lhs - rhs
    if axiom is AxiomId.D_DERIV_WEDGE:
        x, y = args
        return dd(w(x, y)) - w(dd(x), y) - w(x, dd(y)).scaled(_sign(degs[0]))
    if axiom is AxiomId.D_DERIV_DIAMOND:
        x, y = args
        # the diamond has degree -1, so d passes x with the shifted sign
        return dd(dm(x, y)) - dm(dd(x), y) - dm(x, dd(y)).scaled(_sign(degs[0] - 1))
    raise ValueError("unknown axiom %r" % axiom)


def admit_differential(model: AlgebraModel, rng, samples: int = 25,
                       max_poly_degree: int = 2) -> bool:
    """A model differential is admitted only if it derives both the wedge and
    the diamond on sampled homogeneous pairs.  Models with d = 0 pass trivially."""
    if not model.has_differential:
        return True
    for _ in range(samples):
        x = model.sample_form(rng, max_poly_degree=max_poly_degree)
        y = model.sample_form(rng, max_poly_degree=max_poly_degree)
        if not axiom_defect(model, AxiomId.D_DERIV_WEDGE, [x, y]).is_zero():
            return False
        if not axiom_defect(model, AxiomId.D_DERIV_DIAMOND, [x, y]).is_zero():
            return False
    return True
