"""The three workloads: the suite configs each one runs, built from the seed.

A workload is a list of ``SuiteConfig`` keyword sets.  The run seed becomes
the config seed of every sampled suite except those that carry a workload's
slow tail or its median; those run at the suites' default seed 42 in every
run, because resampling them moves the metrics far more than a change to the
program would:

* ``kappa-cojacobi`` at head 4 with 3 tails, ``q-coderiv-delta`` and
  ``q-square`` at head 5 with 5 tails: about 6 of their 100 (50) draws carry
  most of their time, so a resample moves wall time by 15-25% and p99 by up
  to 30% (bootstrap over 1000 sampled instances; p99 over eight seeds).
* ``kappa-compat`` at head 4 with 3 tails: with 300 ``perm-coalgebra``
  samples, the median instance of ``coalgebra-laws`` sat where its times
  rise steeply (0.37 ms at the 46th percentile, 0.66 ms at the 52nd), and a
  resample moved compat instances across it (124 to 133 of its 300 fell
  below the median over four seeds).

Exhaustive suites do not read the seed at all.
"""

from __future__ import annotations

FIXED_SEED = 42
# perm-coalgebra's cheap instances put the median of coalgebra-laws on the
# plateau near 0.23 ms; at 300 samples it sat where the times rise steeply
PERM_SAMPLES = 800

AXIOM_SUITES = ("zinbiel-axioms", "prelie-axioms", "compat", "aguiar", "gerst-derived")
# axioms checked per sample by each axiom suite
AXIOMS_PER_SUITE = {"zinbiel-axioms": 1, "prelie-axioms": 1, "compat": 3,
                    "aguiar": 2, "gerst-derived": 3}


def shuffle_exhaustive(seed):
    return [dict(suite="mu-shuffle-lemma", max_tensor_len=6, seed=seed)]


def coalgebra_laws(seed):
    return [
        dict(suite="kappa-cojacobi", max_tensor_len=4, max_tail_factors=3,
             seed=FIXED_SEED),
        dict(suite="kappa-compat", max_tensor_len=4, max_tail_factors=3,
             seed=FIXED_SEED),
        dict(suite="leibniz-coalgebra", max_tensor_len=5, seed=seed),
        dict(suite="perm-coalgebra", samples=PERM_SAMPLES, seed=seed),
    ]


def forms_envelopes(seed):
    return (
        [dict(suite="q-square", max_tensor_len=5, max_tail_factors=5, seed=FIXED_SEED),
         dict(suite="q-coderiv-delta", max_tensor_len=5, max_tail_factors=5,
              seed=FIXED_SEED)]
        + [dict(suite=s, seed=seed) for s in
           ("r2-prelie", "r2-derivation", "zinf-square", "linf-square", "prelinf-square")]
        + [dict(suite=s, n_coords=3, seed=seed) for s in AXIOM_SUITES]
    )


WORKLOADS = {
    "shuffle-exhaustive": shuffle_exhaustive,
    "coalgebra-laws": coalgebra_laws,
    "forms-envelopes": forms_envelopes,
}


def expected_count(config):
    """Instance count of a resolved config from its closed form, or None where
    the sampler may drop a draw (forms samplers skip tails that vanish)."""
    suite = config.suite
    if suite == "mu-shuffle-lemma":
        # every degree pattern in {0,1,2}^n and every split 1 <= p < n
        return sum(3 ** n * (n - 1) for n in range(2, config.max_tensor_len + 1))
    if suite == "leibniz-coalgebra":
        return sum(3 ** n for n in range(1, config.max_tensor_len + 1))
    # formal pairs use distinct generators, so no sampled tail can vanish
    if suite == "kappa-cojacobi":
        return 2 * config.samples          # coJacobi plus cosymmetry
    if suite == "kappa-compat":
        return 3 * config.samples          # three compatibility laws
    if suite == "perm-coalgebra":
        return config.samples
    if suite in AXIOMS_PER_SUITE:
        return AXIOMS_PER_SUITE[suite] * config.samples
    return None

