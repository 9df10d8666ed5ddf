r"""Concrete graded algebras plugged into the coalgebraic machinery.

An AlgebraModel supplies two operations on homogeneous atoms, each linear in
both arguments: a wedge of base degree 0 (the Zinbiel candidate) and a
diamond of base degree -1 (the pre-Lie-on-the-shift candidate), plus an
optional differential d.  A subclass supplies each as a whole-operand kernel,
_wedge_into(acc, left, right, coeff), _diamond_into(acc, left, right, coeff)
and _d_into(acc, operand, coeff), which adds coeff times the product of two
mappings atom -> coefficient (or d of one) into the dict acc, exact, with
the term cap checked on each new key.  Every public product is its kernel on
two atoms (wedge_atoms, diamond_atoms) or two elements (wedge, diamond), so
identities that hold for the underlying algebra hold termwise.

FormsModel: exterior differential forms with polynomial coefficients over
the rationals in n variables.  A monomial atom is u^a dx_I with base degree
|I| + 1.  The model wedge is x ^ y = (1/|y|) x /\ dy and the diamond is the
plain exterior product.  The exterior derivative derives both with the signs
admit_differential checks, d(x^y) = dx^y + (-1)^{|x|} x^dy and, the diamond
having degree -1, d(x<>y) = dx<>y + (-1)^{|x|-1} x<>dy; it is installed only
when asked for (exterior_differential=True), so the suites run with d = 0.
Its kernels read each atom's record from the model's table and derive each
right atom of the wedge once per call.

FormalModel: the free operations, d = 0.  a^b and a<>b are each one fresh
atom, '(a^b)' of degree |a|+|b| and '(a<>b)' of degree |a|+|b|-1, so a
coderivation law that holds here holds for any operations, and axiom_defect
returns the axiom's relation itself.

Axioms.  _AXIOMS holds each axiom as a row of signed sides: its arity and,
per side, a sign exponent in the base degrees of the arguments and a
composition tree over the wedge, the diamond and d, with the bracket and the
dot expanded by their definitions.  axiom_defect runs the one evaluator,
words._relation_defect, on the row and the model's kernels; bracket and dot
are rows too.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import SchemaError
from .grading import BASE, Generator
from .words import Element, _add_term, _relation_defect, _relation_row


_COEFFS = (-3, -2, -1, 1, 2, 3)    # sample_form's coefficients


def _element(a) -> Element:
    """An element as it is; any other mapping atom -> coefficient wrapped."""
    return a if type(a) is Element else Element(a)


def _apply(kernel, *operands) -> Element:
    out = Element()
    kernel(out.terms, *operands, 1)
    return out


class AlgebraModel:
    """Base interface; subclasses supply the kernels _wedge_into(acc, left,
    right, coeff) and _diamond_into(acc, left, right, coeff), and may
    override the zero differential's kernel _d_into(acc, operand, coeff)."""

    def _d_into(self, acc, operand, coeff):
        pass

    @property
    def has_differential(self) -> bool:
        return False

    # the atom pairs the envelope bodies read, so no helper call on the way
    def wedge_atoms(self, a: Generator, b: Generator) -> Element:
        out = Element()
        self._wedge_into(out.terms, {a: 1}, {b: 1}, 1)
        return out

    def diamond_atoms(self, a: Generator, b: Generator) -> Element:
        out = Element()
        self._diamond_into(out.terms, {a: 1}, {b: 1}, 1)
        return out

    def differential_atom(self, a: Generator) -> Element:
        return _apply(self._d_into, {a: 1})

    # extensions of the atom-level operations
    def wedge(self, a, b) -> Element:
        return _apply(self._wedge_into, _element(a).terms, _element(b).terms)

    def diamond(self, a, b) -> Element:
        return _apply(self._diamond_into, _element(a).terms, _element(b).terms)

    def differential(self, a) -> Element:
        return _apply(self._d_into, _element(a).terms)

    def bracket(self, a, b) -> Element:
        """a<>b - (-1)^{(|a|-1)(|b|-1)} b<>a, always expanded through diamond."""
        return _relation(self, "bracket", _BRACKET, (a, b))

    def dot(self, a, b) -> Element:
        """Symmetrised wedge a.b = a^b + (-1)^{|a||b|} b^a."""
        return _relation(self, "dot", _DOT, (a, b))


class FormalModel(AlgebraModel):
    """The free operations: each product of two atoms is one fresh atom."""

    def _wedge_into(self, acc, left, right, coeff):
        _free_into(acc, left, right, coeff, "(%s^%s)", 0)

    def _diamond_into(self, acc, left, right, coeff):
        _free_into(acc, left, right, coeff, "(%s<>%s)", -1)


def _free_into(acc, left, right, coeff, form, shift):
    """Add coeff times the free product of left and right, one fresh atom
    named form % (a, b) of degree |a| + |b| + shift per atom pair."""
    right = right.items()
    for a, ca in left.items():
        ca *= coeff
        for b, cb in right:
            _add_term(acc, Generator(form % (a.name, b.name), a.degree + b.degree + shift), ca * cb)


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


def _name(exps, dxs) -> str:
    parts = []
    for i, e in enumerate(exps, start=1):
        parts.extend(["u%d" % i] * e)
    parts.extend("du%d" % i for i in dxs)
    return ".".join(parts) if parts else "one"


class _Records(dict):
    """A forms model's table atom -> record.  A missing atom is read from its
    name, which is self-describing, so atoms travel between model instances;
    the key is the whole atom, so a hit also vouches for the degree."""

    __slots__ = ("n_coords",)

    def __init__(self, n_coords: int):
        super().__init__()
        self.n_coords = n_coords

    def __missing__(self, gen: Generator):
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
        if len(set(dxs)) != len(dxs) or _name(exps, sorted(dxs)) != gen.name:
            raise SchemaError("atom %r is not the canonical name of a monomial" % gen.name)
        if len(dxs) + 1 != gen.degree:
            raise SchemaError("atom %r has inconsistent degree" % gen.name)
        record = self[gen] = (exps, _mask(dxs))
        return record


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
        self._records = _Records(n_coords)   # atom -> monomial record
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
        gen = Generator(_name(exps, dxs), len(dxs) + 1)
        self._records[gen] = (exps, _mask(dxs))
        return gen

    def _atom_at(self, record):
        """The atom of a monomial record, interned once per model."""
        gen = self._atoms.get(record)
        if gen is None:
            gen = self._atoms[record] = self.atom(record[0], _indices(record[1]))
        return gen

    def key(self, gen: Generator):
        """The canonical key of an atom: its exponent tuple and sorted dx indices."""
        exps, mask = self._records[gen]
        return exps, _indices(mask)

    # -- the model operations --------------------------------------------------

    def _diamond_into(self, acc, left, right, coeff):
        records, atoms = self._records, self._atoms
        right = right.items()
        for a, ca in left.items():
            exps, mask = records[a]
            ca *= coeff
            for b, cb in right:
                b_exps, b_mask = records[b]
                if not mask & b_mask:
                    key = (tuple(map(operator.add, exps, b_exps)), mask | b_mask)
                    _add_term(acc, atoms.get(key) or self._atom_at(key),
                              ca * cb * _dx_sign(mask, b_mask))

    def _wedge_into(self, acc, left, right, coeff):
        records, atoms = self._records, self._atoms
        left = left.items()
        for b, cb in right.items():
            b_record = records[b]
            d_terms = None      # db, derived once per call, when first needed
            for a, ca in left:
                exps, mask = records[a]
                if mask & b_record[1]:
                    continue    # every term of a /\ db repeats a dx index
                if d_terms is None:
                    scale = 1 if b.degree == 1 else _inverse(b.degree)
                    d_terms = _d_terms(b_record)
                for dc, (d_exps, d_mask) in d_terms:
                    if not mask & d_mask:
                        key = (tuple(map(operator.add, exps, d_exps)), mask | d_mask)
                        _add_term(acc, atoms.get(key) or self._atom_at(key),
                                  scale * (ca * cb * (coeff * dc * _dx_sign(mask, d_mask))))

    def _d_into(self, acc, operand, coeff):
        if self.exterior_differential:
            for a, ca in operand.items():
                for c, record in _d_terms(self._records[a]):
                    _add_term(acc, self._atoms.get(record) or self._atom_at(record), coeff * ca * c)

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


# Each row: an arity and its sides (sign exponent in the base degrees, tree
# over the wedge, the diamond and d), the bracket and the dot expanded as
# [a, b] = a<>b - (-1)^{(|a|-1)(|b|-1)} b<>a and a.b = a^b + (-1)^{|a||b|} b^a.
_W, _M, _D = "wedge", "diamond", "d"
_PLUS, _MINUS = (lambda *degs: 0), (lambda *degs: 1)
_BRACKET = _relation_row(2, ((_PLUS, (_M, 0, 1)), (lambda a, b: 1 + (a - 1) * (b - 1), (_M, 1, 0))))
_DOT = _relation_row(2, ((_PLUS, (_W, 0, 1)), (lambda a, b: a * b, (_W, 1, 0))))
_AXIOMS = {
    AxiomId.ZINBIEL: _relation_row(3, (
        (_PLUS, (_W, (_W, 0, 1), 2)),
        (_MINUS, (_W, 0, (_W, 1, 2))),
        (lambda x, y, z: 1 + y * z, (_W, 0, (_W, 2, 1))))),
    AxiomId.PRELIE: _relation_row(3, (
        (_PLUS, (_M, (_M, 0, 1), 2)),
        (_MINUS, (_M, 0, (_M, 1, 2))),
        (lambda x, y, z: 1 + (y - 1) * (z - 1), (_M, (_M, 0, 2), 1)),
        (lambda x, y, z: (y - 1) * (z - 1), (_M, 0, (_M, 2, 1))))),
    AxiomId.COMPAT_A: _relation_row(3, (
        (_PLUS, (_W, 0, (_M, 1, 2))),
        (lambda x, y, z: 1 + (y - 1) * (z - 1), (_W, 0, (_M, 2, 1))))),
    AxiomId.COMPAT_B: _relation_row(3, (
        (_PLUS, (_M, 0, (_W, 1, 2))),
        (_MINUS, (_W, (_M, 0, 1), 2)))),
    AxiomId.COMPAT_C: _relation_row(3, (
        (_PLUS, (_W, (_M, 0, 1), 2)),
        (lambda x, y, z: 1 + (y - 1) * z, (_M, (_W, 0, 2), 1)))),
    # [x, y^z] - [x, y]^z
    AxiomId.DERIVED_2: _relation_row(3, (
        (_PLUS, (_M, 0, (_W, 1, 2))),
        (lambda x, y, z: 1 + (x - 1) * (y + z - 1), (_M, (_W, 1, 2), 0)),
        (_MINUS, (_W, (_M, 0, 1), 2)),
        (lambda x, y, z: (x - 1) * (y - 1), (_W, (_M, 1, 0), 2)))),
    # [x, y.z] - [x, y].z - (-1)^{|y|(|x|-1)} y.[x, z]
    AxiomId.LEIBNIZ_GERST: _relation_row(3, (
        (_PLUS, (_M, 0, (_W, 1, 2))),
        (lambda x, y, z: y * z, (_M, 0, (_W, 2, 1))),
        (lambda x, y, z: 1 + (x - 1) * (y + z - 1), (_M, (_W, 1, 2), 0)),
        (lambda x, y, z: 1 + (x - 1) * (y + z - 1) + y * z, (_M, (_W, 2, 1), 0)),
        (_MINUS, (_W, (_M, 0, 1), 2)),
        (lambda x, y, z: (x - 1) * (y - 1), (_W, (_M, 1, 0), 2)),
        (lambda x, y, z: 1 + (x + y - 1) * z, (_W, 2, (_M, 0, 1))),
        (lambda x, y, z: (x + y - 1) * z + (x - 1) * (y - 1), (_W, 2, (_M, 1, 0))),
        (lambda x, y, z: 1 + y * (x - 1), (_W, 1, (_M, 0, 2))),
        (lambda x, y, z: y * (x - 1) + (x - 1) * (z - 1), (_W, 1, (_M, 2, 0))),
        (lambda x, y, z: 1 + y * z, (_W, (_M, 0, 2), 1)),
        (lambda x, y, z: y * z + (x - 1) * (z - 1), (_W, (_M, 2, 0), 1)))),
    # [x, y]^z = x<>(y^z) - (-1)^{(|x|-1)(|y|-1)} y<>(x^z); the second term
    # follows from compat B and C (expand the bracket, rewrite each
    # (..<>..)^z through compat C, then pull the wedge inside with B).
    AxiomId.AGUIAR_1: _relation_row(3, (
        (_PLUS, (_W, (_M, 0, 1), 2)),
        (lambda x, y, z: 1 + (x - 1) * (y - 1), (_W, (_M, 1, 0), 2)),
        (_MINUS, (_M, 0, (_W, 1, 2))),
        (lambda x, y, z: (x - 1) * (y - 1), (_M, 1, (_W, 0, 2))))),
    # (x.y)<>z = (-1)^{(|z|-1)|y|} x<>(z^y) + (-1)^{|x||y|+(|z|-1)|x|} y<>(z^x),
    # again a consequence of compat B and C applied to both halves of the dot.
    AxiomId.AGUIAR_2: _relation_row(3, (
        (_PLUS, (_M, (_W, 0, 1), 2)),
        (lambda x, y, z: x * y, (_M, (_W, 1, 0), 2)),
        (lambda x, y, z: 1 + (z - 1) * y, (_M, 0, (_W, 2, 1))),
        (lambda x, y, z: 1 + x * y + (z - 1) * x, (_M, 1, (_W, 2, 0))))),
    AxiomId.D_DERIV_WEDGE: _relation_row(2, (
        (_PLUS, (_D, (_W, 0, 1))),
        (_MINUS, (_W, (_D, 0), 1)),
        (lambda x, y: 1 + x, (_W, 0, (_D, 1))))),
    # the diamond has degree -1, so d passes x with the shifted sign
    AxiomId.D_DERIV_DIAMOND: _relation_row(2, (
        (_PLUS, (_D, (_M, 0, 1))),
        (_MINUS, (_M, (_D, 0), 1)),
        (lambda x, y: x, (_M, 0, (_D, 1))))),
}
_AXIOMS[AxiomId.DERIVED_1] = _AXIOMS[AxiomId.COMPAT_A]     # x^[y, z] written out


def _relation(model: AlgebraModel, what: str, row, args) -> Element:
    """The signed sum of a row's sides on homogeneous elements, through the
    model's kernels."""
    ops = {_W: model._wedge_into, _M: model._diamond_into, _D: model._d_into}
    return _relation_defect(row, ops, [_element(a) for a in args], BASE, what)


def axiom_defect(model: AlgebraModel, axiom: AxiomId, args) -> Element:
    """Exact defect of one axiom on homogeneous elements; zero iff it holds."""
    return _relation(model, "axiom " + axiom.value, _AXIOMS[axiom], args)


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
