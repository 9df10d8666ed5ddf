"""Exact-arithmetic machinery for pre-Gerstenhaber structures up to homotopy.

The package builds the cofree Leibniz and permutative coalgebras over a
graded algebra carrying a Zinbiel wedge and a pre-Lie diamond, extends the
diamond to tensor words, lifts everything to the candidate codifferential
Q = m + R, and verifies every identity involved by exact symbolic expansion
over the rationals: zero tolerance, every defect is an explicit element.
"""

from .cooperations import (
    LawId,
    cocrochet_lie,
    delta_cocom,
    delta_leibniz,
    delta_perm,
    kappa,
    kappa_prime,
    kappa_prime_sym,
    law_defect,
)
from .envelopes import (
    EnvelopeContext,
    coderivation_defect,
    l_infinity_q,
    m_map,
    prelie_envelope_q,
    q_total,
    r2,
    r2_derivation_defect,
    r2_prelie_defect,
    r_map,
    zinfinity_d,
)
from .errors import ParseError, SchemaError, TermBudgetExceeded, UnsupportedModelError
from .grading import (
    BASE,
    SHIFT1,
    SHIFT2,
    Generator,
    GeneratorRegistry,
    GradingView,
    Permutation,
    koszul_sign,
    rearrangement_sign,
    shuffles,
    shuffles_k1m,
)
from .models import (
    AlgebraModel,
    AxiomId,
    FormalModel,
    FormsModel,
    admit_differential,
    axiom_defect,
)
from .mutations import ALL_MUTATION_NAMES
from .suites import SUITE_NAMES, SuiteConfig, VerificationReport, run_suite
from .words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    Word,
    degree,
    element_to_text,
    embed_element,
    embed_sym_into_pair,
    mu,
    normalize,
    parse_element,
    shuffle_product,
    sym_product,
    sym_word,
    word_to_text,
)

__version__ = "0.1.0"
