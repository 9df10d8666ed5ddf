"""The enveloping codifferentials end to end: D on tensor words, the pre-Lie
extension, the lift Q = m + R, its structure equation and coderivation laws,
including the one identity that genuinely fails.

Run as:  python3 demos/05_envelopes.py
"""

import random

from pregerst import (
    SHIFT2,
    Element, EnvelopeContext, FormsModel, Gen, Pair, Sym, Tensor,
    coderivation_defect, delta_perm, element_to_text, kappa, m_map, q_total, r2,
    r2_derivation_defect, r2_prelie_defect, r_map, sym_word, zinfinity_d,
)

model = FormsModel(2)
ctx = EnvelopeContext(model)
rng = random.Random(7)

u1, u2, du1 = (Gen(model.atom(*k)) for k in [((1, 0), ()), ((0, 1), ()), ((0, 0), (1,))])

print("D acts on tensor words with the wedge at the head and through mu_2 at")
print("interior slots:")
w = Tensor((u1, u2, du1))
print("  D(u1 (x) u2 (x) du1) =", element_to_text(zinfinity_d(ctx, Element.single(w))))
print("  D(D(...)) =", element_to_text(zinfinity_d(ctx, zinfinity_d(ctx, Element.single(w)))))

print("\nThe pre-Lie extension pairs heads and inserts brackets:")
print("  r2(u1 (x) du1, u2) =", element_to_text(r2(ctx, Tensor((u1, du1)), Tensor((u2,)))))

def rand_word(L):
    return Tensor(tuple(Gen(model.sample_atom(rng, max_poly_degree=1)) for _ in range(L)))

print("\nThe extension is a differential pre-Lie structure; 40 random checks:")
bad = 0
for _ in range(40):
    x, y, z = (Element.single(rand_word(L)) for L in (2, 2, 1))
    bad += 0 if r2_prelie_defect(ctx, x, y, z).is_zero() else 1
    bad += 0 if r2_derivation_defect(ctx, x, y).is_zero() else 1
print("  nonzero defects:", bad)

def rand_pair():
    head = rand_word(rng.randint(1, 2))
    tails = [rand_word(rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    sign, tail = sym_word(tails, SHIFT2)
    if tail is None:
        return None
    return Element.single(Pair(head, tail), sign)

print("\nQ = m + R on pair words over tensor words:")
e = Element.single(Pair(Tensor((u1,)), Sym((Tensor((u2,)),))))
print("  Q(%s) = %s" % (element_to_text(e), element_to_text(q_total(ctx, e))))

print("\nStructure equation and the permutative coderivation law, 30 samples:")
bad_sq = bad_cd = 0
cop = lambda x: delta_perm(x, SHIFT2)
for _ in range(30):
    e = rand_pair()
    if e is None:
        continue
    if not q_total(ctx, q_total(ctx, e)).is_zero():
        bad_sq += 1
    if not coderivation_defect(ctx, q_total, cop, 0, e).is_zero():
        bad_cd += 1
print("  Q^2 nonzero:", bad_sq, "  coderivation defects:", bad_cd)

print("\nAgainst the degree-one cocrochet, the m half is a coderivation but")
print("the R half is not; the smallest counterexample:")
sign, tail = sym_word([Tensor((u2, du1))], SHIFT2)
e = Element.single(Pair(Tensor((u1,)), tail), sign)
kop = lambda x: kappa(x, SHIFT2)
defect_m = coderivation_defect(ctx, m_map, kop, 1, e)
defect_r = coderivation_defect(ctx, r_map, kop, 1, e)
print("  input:", element_to_text(e))
print("  m defect:", "zero" if defect_m.is_zero() else element_to_text(defect_m))
print("  R defect:", "zero" if defect_r.is_zero() else element_to_text(defect_r))
print("\nThat residual is a genuine property of the construction, not an")
print("implementation artifact; see the q-coderiv-kappa suite and the tests.")
