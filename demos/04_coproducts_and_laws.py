"""The coproducts and their laws, checked by exact expansion, plus a look at
what happens when a single sign is sabotaged.

Run as:  python3 demos/04_coproducts_and_laws.py
"""

from pregerst import (
    SHIFT2,
    Element, Gen, GeneratorRegistry, LawId, Pair, Sym, Tensor,
    delta_leibniz, delta_perm, element_to_text, kappa, law_defect,
    sym_word,
)
from pregerst.mutations import mutant

reg = GeneratorRegistry()
a, b, c = (Gen(reg.declare(n, 2)) for n in "abc")

print("The Leibniz cocrochet cuts a tensor word and antisymmetrises the")
print("right part with mu:")
print("  delta(a (x) b (x) c) =")
for line in element_to_text(delta_leibniz(Element.single(Tensor((a, b, c))))).split(" + "):
    print("    ", line)

print("\nThe permutative coproduct on pair words splits the tail; the second")
print("leg returns through the symmetric-to-pair embedding:")
sign, tail = sym_word([Tensor((b,)), Tensor((c,))], SHIFT2)
e = Element.single(Pair(Tensor((a,)), tail), sign)
print("  Delta(%s) =" % element_to_text(e))
for line in element_to_text(delta_perm(e)).split(" + "):
    print("    ", line)

print("\nThe degree-one cocrochet cuts the head both ways:")
e2 = Element.single(Pair(Tensor((a, b)), Sym(())))
print("  kappa(%s) = %s" % (element_to_text(e2), element_to_text(kappa(e2))))

print("\nEvery law is an exact subtraction of both fully expanded sides.")
e3 = Element.single(Pair(Tensor((a, b, c)), Sym(())))
for law in (LawId.PERM_COALG, LawId.KAPPA_COJACOBI,
            LawId.COMPAT_1, LawId.COMPAT_2, LawId.COMPAT_3):
    defect = law_defect(law, e3)
    print("  %-16s defect: %s" % (law.value, "zero" if defect.is_zero()
                                  else element_to_text(defect)))

print("\nA verifier must be able to fail.  Drop the head-cut sign in the")
print("cocrochet and the shifted coJacobi identity breaks:")
with mutant("kappa_head_sign_drop"):
    defect = law_defect(LawId.KAPPA_COJACOBI, e3)
print("  mutated defect has %d terms, first: %s"
      % (len(defect), element_to_text(defect).split(" + ")[0]))
