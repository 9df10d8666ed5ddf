"""Degree bookkeeping: three gradings, Koszul signs, shuffle enumeration.

Run as:  python3 demos/01_signs_and_shuffles.py
"""

from pregerst import (
    BASE, SHIFT1, SHIFT2,
    GeneratorRegistry, Permutation,
    koszul_sign, shuffles, shuffles_k1m,
)

print("Every symbol carries a base degree |x| and the two shifted degrees")
print("deg(x) = |x| - 1 and deg'(x) = |x| - 2.\n")

reg = GeneratorRegistry()
x = reg.declare("x", 3)
print("x with |x| = 3:", "deg =", x.degree_in(SHIFT1), " deg' =", x.degree_in(SHIFT2))

print("\nKoszul signs: swapping two odd symbols costs a minus.")
print("  koszul_sign([1,1], swap)      =", koszul_sign([1, 1], Permutation((2, 1))))
print("  koszul_sign([1,2], swap)      =", koszul_sign([1, 2], Permutation((2, 1))))
print("  koszul_sign([1,2,1], reverse) =", koszul_sign([1, 2, 1], Permutation((3, 2, 1))))

print("\n(p,q)-shuffles keep both blocks in order; an empty side degenerates")
print("to the identity, which the boundary cases downstream rely on.")
for p, q in [(1, 1), (2, 1), (2, 2), (0, 3)]:
    perms = shuffles(p, q)
    print("  Sh(%d,%d): %d permutations  %s" % (p, q, len(perms),
          [perm.images for perm in perms][:6]))

print("\nThe three-block variant with a free middle slot (used by the")
print("permutative envelope):")
print("  |Sh_{1,1,1}| =", len(shuffles_k1m(1, 1)), " on 3 letters")
