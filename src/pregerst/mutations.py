"""Curated single faults, applied to the source, that prove the checkers can fail.

Each mutant names one function of the package, a snippet of its source (a
sign, a scale or an operand) and the snippet's replacement.  Inside
``with mutant(name):`` the function runs the edited source, and the
mutation-sanity suite asserts that some law then reports a nonzero defect.
A verifier that cannot fail verifies nothing.

The program carries no hook for a fault: no flag, parameter or field.
mutant takes the unwrapped target (past lru_cache or any other wrapper),
requires the snippet to occur in its dedented source exactly once, compiles
the edited source in a copy of the function's globals and swaps the new code
object into the live function, so every caller in the package runs the
fault; a finally puts the original code back.  Every lru_cache in the
package and the images of every live EnvelopeContext are cleared on entry and
on exit, so no table or image built without the fault is read inside the
block and none built with it outlives the block.  A mutant changes the whole
process: run one at a time, from one thread.
"""

from __future__ import annotations

import __future__
import ast
import importlib
import inspect
import sys
import textwrap
from contextlib import contextmanager
from typing import NamedTuple


class Patch(NamedTuple):
    module: str      # module of the package, e.g. "words"
    function: str    # qualified name in it, e.g. "FormsModel._wedge_into"
    old: str         # snippet of the function's dedented source
    new: str


PATCHES = {
    # mu_2 keeps only its identity term; every higher mu is built from it.
    "mu2_identity": Patch("words", "_mu_table", "for p, c in extended:",
                          "for p, c in (extended if n != 2 else ()):"),
    # shuffle interleavings lose their Koszul signs.
    "shuffle_unsigned": Patch("words", "shuffle_terms",
                              "mask = _odd_mask(factors, view)", "mask = 0"),
    # the bracket inside the pre-Lie extension uses + instead of -.
    "r2_bracket_plus": Patch("envelopes", "_bracket_atoms", "sign > 0", "sign < 0"),
    # the lift's unary part at a tail factor (the tail part of m) drops its
    # head-degree sign.
    "m_tail_sign_drop": Patch("envelopes", "_lift", "tail_coeff = coeff * head_sign * eps[j]",
                              "tail_coeff = coeff * eps[j]"),
    # the Leibniz cocrochet on pair words drops the (-1)^{deg' of left cut} prefactor.
    "kappa_head_sign_drop": Patch("cooperations", "_kappa_word",
                                  "cut_sign = SIGN[up]", "cut_sign = 1"),
    # the symmetric cocrochet drops its position prefix sign (-1)^{sum of earlier deg'}.
    "kappa_prime_prefix_drop": Patch("cooperations", "_kappa_prime_sym_word",
                                     "prefix = SIGN[sum(parities[:s]) & 1]", "prefix = 1"),
    # the Zinbiel envelope's binary part drops the (-1)^{deg} twist.
    "zinf_q2_sign_drop": Patch("envelopes", "_q2_wedge", "return -product", "return product"),
    # the lift's binary part on two tail factors (l2, the symmetrised shifted
    # pre-Lie extension, in R) is antisymmetrised instead of symmetrised.
    "l2_sym_sign_flip": Patch("envelopes", "_symmetrised", "add(w, c * swap)",
                              "add(w, c * -swap)"),
    # the differential-forms wedge loses its 1/degree scalar.
    "wedge_scale_drop": Patch("models", "FormsModel._wedge_into",
                              "scale = 1 if b.degree == 1 else _inverse(b.degree)", "scale = 1"),
    # the symmetric-word-to-pair-word embedding loses its Koszul signs (its
    # sign rule, read by the embedding itself and by delta_perm's table).
    "embed_unsigned": Patch("words", "_embed_sign",
                            "return SIGN[odd & moved]", "return 1"),
}

ALL_MUTATION_NAMES = list(PATCHES)


def _mutated_code(fn, patch: Patch):
    """fn's code compiled from its source with the snippet replaced, its
    decorators dropped and its line numbers kept."""
    source = textwrap.dedent(inspect.getsource(fn))
    count = source.count(patch.old)
    if count != 1:
        raise RuntimeError("snippet %r occurs %d times in %s.%s, not once"
                           % (patch.old, count, patch.module, patch.function))
    tree = ast.parse(source.replace(patch.old, patch.new))
    tree.body[0].decorator_list = []
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    namespace = dict(fn.__globals__)
    exec(compile(tree, fn.__code__.co_filename, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[fn.__name__].__code__


def _clear_caches():
    """Call cache_clear on everything at the top level of a package module
    that has it: each lru_cache, and EnvelopeContext, which empties the
    images of every live context."""
    for name, module in list(sys.modules.items()):
        if name == __package__ or name.startswith(__package__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@contextmanager
def mutant(name: str):
    """Run the block with the named fault compiled into its target function."""
    patch = PATCHES.get(name)
    if patch is None:
        raise ValueError("unknown mutation %r" % name)
    fn = importlib.import_module("%s.%s" % (__package__, patch.module))
    for part in patch.function.split("."):
        fn = getattr(fn, part)
    fn = inspect.unwrap(fn)
    original, mutated = fn.__code__, _mutated_code(fn, patch)
    _clear_caches()
    fn.__code__ = mutated
    try:
        yield
    finally:
        fn.__code__ = original
        _clear_caches()
