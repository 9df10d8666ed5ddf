r"""Concrete graded algebras plugged into the coalgebraic machinery.

An AlgebraModel supplies two operations on homogeneous atoms, each linear in
both arguments: a wedge of base degree 0 (the Zinbiel candidate) and a
diamond of base degree -1 (the pre-Lie-on-the-shift candidate), plus an
optional differential.  A subclass supplies each as a kernel on atoms,
_wedge_into(add, a, b, coeff, derived) and _diamond_into(add, a, b, coeff,
derived), which adds coeff times the product of a and b (exact, over atoms)
through add; derived is a dict of the one product call, where a kernel may
keep what it derives from an atom (the forms wedge keeps the derivative of
each right atom).  One bilinear loop runs a kernel on two atoms (wedge_atoms,
diamond_atoms) or on any two mappings atom -> coefficient (wedge, diamond),
so everything extends multilinearly and identities that hold for the
underlying algebra hold termwise after expansion.

FormsModel: exterior differential forms with polynomial coefficients over
the rationals in n variables.  A monomial atom is u^a dx_I with base degree
|I| + 1.  The model wedge is x ^ y = (1/|y|) x /\ dy and the diamond is the
plain exterior product.  The exterior derivative derives both with the signs
admit_differential checks, d(x^y) = dx^y + (-1)^{|x|} x^dy and, the diamond
having degree -1, d(x<>y) = dx<>y + (-1)^{|x|-1} x<>dy; it is installed only
when asked for (exterior_differential=True), so the suites run with d = 0.

FormalModel: the free operations, d = 0.  a^b and a<>b are each one fresh
atom, '(a^b)' of degree |a|+|b| and '(a<>b)' of degree |a|+|b|-1, so a
coderivation law that holds here holds for any operations, and axiom_defect
returns the axiom's relation itself.

axiom_defect evaluates one algebra axiom on a pair or triple of homogeneous
elements and returns the exact defect.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import SchemaError
from .grading import BASE, Generator
from .words import Element


_COEFFS = (-3, -2, -1, 1, 2, 3)    # sample_form's coefficients


def _element(a) -> Element:
    """An element as it is; any other mapping atom -> coefficient wrapped."""
    return a if type(a) is Element else Element(a)


def _bilinear(kernel, left, right) -> Element:
    """The element of kernel over every pair of terms (atom, coefficient) of
    left and right, each pair's coefficients multiplied into one; the kernel
    shares one dict for what it derives across the call."""
    out = Element()
    add = out.add_term
    derived = {}
    for k1, c1 in left:
        for k2, c2 in right:
            kernel(add, k1, k2, c1 * c2, derived)
    return out


class AlgebraModel:
    """Base interface; subclasses supply the kernels _wedge_into(add, a, b,
    coeff, derived) and _diamond_into(add, a, b, coeff, derived), and may
    override the zero differential."""

    def differential_atom(self, a: Generator) -> Element:
        return Element()

    @property
    def has_differential(self) -> bool:
        return False

    def wedge_atoms(self, a: Generator, b: Generator) -> Element:
        return _bilinear(self._wedge_into, ((a, 1),), ((b, 1),))

    def diamond_atoms(self, a: Generator, b: Generator) -> Element:
        return _bilinear(self._diamond_into, ((a, 1),), ((b, 1),))

    # extensions of the atom-level operations
    def wedge(self, a, b) -> Element:
        return _bilinear(self._wedge_into, _element(a).terms.items(), _element(b).terms.items())

    def diamond(self, a, b) -> Element:
        return _bilinear(self._diamond_into, _element(a).terms.items(), _element(b).terms.items())

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
    """The free operations: each product of two atoms is one fresh atom."""

    def _wedge_into(self, add, a: Generator, b: Generator, coeff, derived):
        add(Generator("(%s^%s)" % (a.name, b.name), a.degree + b.degree), coeff)

    def _diamond_into(self, add, a: Generator, b: Generator, coeff, derived):
        add(Generator("(%s<>%s)" % (a.name, b.name), a.degree + b.degree - 1), coeff)


@lru_cache(maxsize=None)
def _dx_sign(left: int, right: int) -> int:
    """The sign of dx_I /\\ dx_J for the disjoint masks I and J (bit i for
    du_i): -1 to the number of pairs i in I, j in J with j < i."""
    crossings = 0
    while right:
        low = right & -right
        crossings += (left & -(low << 1)).bit_count()    # the i in I above j
        right ^= low
    return -1 if crossings & 1 else 1


@lru_cache(maxsize=None)
def _inverse(d: int) -> Fraction:
    return Fraction(1, d)


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _indices(mask: int) -> tuple:
    """The sorted dx indices of a mask."""
    return tuple(i for i in range(1, mask.bit_length()) if mask >> i & 1)


def _d_terms(record):
    """d of a monomial record: per coordinate i in order with e_i > 0 and no
    du_i, (coeff, record) of e_i du_i moved into place past the dx below i."""
    exps, mask = record
    out = []
    bit = 1
    for i, e in enumerate(exps):
        bit <<= 1
        if e and not mask & bit:
            out.append((e * _dx_sign(bit, mask), (exps[:i] + (e - 1,) + exps[i + 1:], mask | bit)))
    return out


class FormsModel(AlgebraModel):
    """Polynomial-coefficient exterior forms on n coordinates over Q.

    Atoms are monomials u1^e1 ... un^en du_{i1} ... du_{ik} with base degree
    k + 1 (a k-form has base degree k + 1; there are no degree-0 elements).
    Atom names spell the monomial: 'u1.u1.du2' is u1^2 du2, 'one' is the
    constant function 1.  Each atom has a record (exps, mask): its exponent
    tuple and the mask of its dx indices, bit i for du_i.
    """

    def __init__(self, n_coords: int, exterior_differential: bool = False):
        if n_coords < 1:
            raise ValueError("need at least one coordinate")
        self.n_coords = n_coords
        self.exterior_differential = exterior_differential
        self._records = {}  # atom -> monomial record
        self._atoms = {}    # monomial record -> atom

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
        gen = Generator(self._name(exps, dxs), len(dxs) + 1)
        self._records[gen] = (exps, _mask(dxs))
        return gen

    def _atom_at(self, record):
        """The atom of a monomial record, interned once per model."""
        gen = self._atoms.get(record)
        if gen is None:
            gen = self._atoms[record] = self.atom(record[0], _indices(record[1]))
        return gen

    @staticmethod
    def _name(exps, dxs) -> str:
        parts = []
        for i, e in enumerate(exps, start=1):
            parts.extend(["u%d" % i] * e)
        parts.extend("du%d" % i for i in dxs)
        return ".".join(parts) if parts else "one"

    def key(self, gen: Generator):
        """The canonical key of an atom: its exponent tuple and sorted dx indices."""
        exps, mask = self._record(gen)
        return exps, _indices(mask)

    def _record(self, gen: Generator):
        # keyed by the whole atom, so a hit also vouches for the degree
        record = self._records.get(gen)
        if record is not None:
            return record
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
        exps = tuple(exps)
        if len(set(dxs)) != len(dxs) or self._name(exps, sorted(dxs)) != gen.name:
            raise SchemaError("atom %r is not the canonical name of a monomial" % gen.name)
        if len(dxs) + 1 != gen.degree:
            raise SchemaError("atom %r has inconsistent degree" % gen.name)
        record = self._records[gen] = (exps, _mask(dxs))
        return record

    # -- the model operations --------------------------------------------------

    def _diamond_into(self, add, a: Generator, b: Generator, coeff, derived):
        exps, mask = self._record(a)
        b_exps, b_mask = self._record(b)
        if not mask & b_mask:
            add(self._atom_at((tuple(map(operator.add, exps, b_exps)), mask | b_mask)),
                coeff * _dx_sign(mask, b_mask))

    def _wedge_into(self, add, a: Generator, b: Generator, coeff, derived):
        exps, mask = self._record(a)
        b_record = self._record(b)
        if mask & b_record[1]:
            return    # every term of a /\ db repeats a dx index
        scale = 1 if b.degree == 1 else _inverse(b.degree)
        d_terms = derived.get(b)      # db, once per right atom of the call
        if d_terms is None:
            d_terms = derived[b] = _d_terms(b_record)
        for dc, (d_exps, d_mask) in d_terms:
            if not mask & d_mask:
                add(self._atom_at((tuple(map(operator.add, exps, d_exps)), mask | d_mask)),
                    scale * (coeff * dc * _dx_sign(mask, d_mask)))

    def differential_atom(self, a: Generator) -> Element:
        out = Element()
        if self.exterior_differential:
            for c, record in _d_terms(self._record(a)):
                out.add_term(self._atom_at(record), c)
        return out

    @property
    def has_differential(self) -> bool:
        return self.exterior_differential

    # -- deterministic sampling -------------------------------------------------

    def _sample_record(self, rng, form_degree, budget):
        """The record of a monomial of the given form degree and polynomial
        degree: one randrange per unit of budget, then a sample of dx indices."""
        n = self.n_coords
        exps = [0] * n
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        return tuple(exps), _mask(rng.sample(range(1, n + 1), form_degree))

    def sample_form(self, rng, form_degree=None, max_poly_degree=3,
                    max_terms=3) -> Element:
        """Homogeneous element of 1..max_terms monomials of one form degree,
        integer coefficients in [-3, 3] \\ {0}; deterministic in rng state."""
        if form_degree is None:
            form_degree = rng.randint(0, self.n_coords)
        out = Element()
        for _ in range(rng.randint(1, max_terms)):
            record = self._sample_record(rng, form_degree, rng.randint(0, max_poly_degree))
            out.add_term(self._atom_at(record), rng.choice(_COEFFS))
        if out.is_zero():
            out = Element.single(self._atom_at(self._sample_record(rng, form_degree, 0)))
        return out

    def sample_atom(self, rng, form_degree=None, max_poly_degree=3) -> Generator:
        if form_degree is None:
            form_degree = rng.randint(0, self.n_coords)
        return self._atom_at(self._sample_record(rng, form_degree, rng.randint(0, max_poly_degree)))


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


def _sign(exp: int) -> int:
    return -1 if exp & 1 else 1


def axiom_defect(model: AlgebraModel, axiom: AxiomId, args) -> Element:
    """Exact defect of one axiom on homogeneous elements; zero iff it holds."""
    args = [_element(a) for a in args]
    arity = 2 if axiom in (AxiomId.D_DERIV_WEDGE, AxiomId.D_DERIV_DIAMOND) else 3
    if len(args) != arity:
        raise ValueError("axiom %s takes %d arguments" % (axiom.value, arity))
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
