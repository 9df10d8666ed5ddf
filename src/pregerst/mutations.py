"""Deliberate single-fault switches used to prove the checkers can fail.

Every flag defaults to off.  Turning one on injects exactly one wrong sign or
one dropped factor somewhere in the machinery; the mutation-sanity suite then
asserts that at least one verification law reports a nonzero defect for each
flag.  A verifier that cannot fail verifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Mutations:
    # mu_2 becomes the identity instead of 1 - signed transposition.
    mu2_identity: bool = False
    # shuffle interleavings lose their Koszul signs.
    shuffle_unsigned: bool = False
    # the bracket inside the pre-Lie extension uses + instead of -.
    r2_bracket_plus: bool = False
    # the tail part of the lifted differential m drops its head-degree prefix sign.
    m_tail_sign_drop: bool = False
    # the Leibniz cocrochet on pair words drops the (-1)^{deg' of left cut} prefactor.
    kappa_head_sign_drop: bool = False
    # the symmetric cocrochet drops its position prefix sign (-1)^{sum of earlier deg'}.
    kappa_prime_prefix_drop: bool = False
    # the Zinbiel envelope's binary part drops the (-1)^{deg} twist.
    zinf_q2_sign_drop: bool = False
    # the symmetrised pre-Lie extension uses a minus instead of a plus.
    l2_sym_sign_flip: bool = False
    # the differential-forms wedge loses its 1/degree scalar.
    wedge_scale_drop: bool = False
    # the symmetric-word-to-pair-word embedding loses its Koszul signs.
    embed_unsigned: bool = False


NO_MUTATIONS = Mutations()


def single(name: str) -> Mutations:
    """The mutation set with exactly one named flag enabled."""
    valid = {f.name for f in fields(Mutations)}
    if name not in valid:
        raise ValueError("unknown mutation %r" % name)
    return Mutations(**{name: True})


ALL_MUTATION_NAMES = [f.name for f in fields(Mutations)]
