"""The differential-forms model: a Zinbiel wedge with a 1/degree scalar and a
pre-Lie diamond, verified against the whole axiom battery.

Run as:  python3 demos/03_forms_model.py
"""

import random
from fractions import Fraction

from pregerst import AxiomId, FormsModel, admit_differential, check_axiom, element_to_text

model = FormsModel(2)
u1 = {model.atom((1, 0), ()): Fraction(1)}
u2 = {model.atom((0, 1), ()): Fraction(1)}
beta = {model.atom((0, 1), (1,)): Fraction(1)}   # u2 du1, a 1-form

print("Atoms are polynomial-coefficient form monomials; a k-form has base")
print("degree k+1, so even the constant function has degree 1.\n")

print("The model wedge divides by the degree of its second argument:")
print("  u1 ^ u2       =", element_to_text(model.wedge(u1, u2)))
print("  u1 ^ (u2 du1) =", element_to_text(model.wedge(u1, beta)), "   (the 1/2 matters)")
print("The diamond is the plain exterior product:")
print("  u1 <> u2      =", element_to_text(model.diamond(u1, u2)))
print("  du1 <> du1    =", element_to_text(model.diamond(
    {model.atom((0, 0), (1,)): Fraction(1)}, {model.atom((0, 0), (1,)): Fraction(1)})))

print("\nRunning every axiom on 100 seeded homogeneous triples:")
rng = random.Random(2024)
axioms = [AxiomId.ZINBIEL, AxiomId.PRELIE, AxiomId.COMPAT_A, AxiomId.COMPAT_B,
          AxiomId.COMPAT_C, AxiomId.DERIVED_1, AxiomId.DERIVED_2,
          AxiomId.LEIBNIZ_GERST, AxiomId.AGUIAR_1, AxiomId.AGUIAR_2]
triples = [[model.sample_form(rng) for _ in range(3)] for _ in range(100)]
for axiom in axioms:
    bad = sum(0 if check_axiom(model, axiom, args).ok else 1 for args in triples)
    print("  %-14s %s" % (axiom.value, "zero defect on all triples" if bad == 0
                          else "%d NONZERO DEFECTS" % bad))

print("\nA model differential is admitted only if it derives both products.")
print("The exterior derivative derives the wedge but not the diamond:")
print("  zero differential admitted:    ", admit_differential(FormsModel(2), random.Random(1)))
print("  exterior derivative admitted:  ",
      admit_differential(FormsModel(2, exterior_differential=True), random.Random(1)))
print("Conforming runs therefore use the zero differential.")
