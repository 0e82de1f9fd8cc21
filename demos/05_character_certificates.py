"""
Character-sum certificates for ordered arrays
=============================================

"""

# Each row of an ordered array pairs with a digit-function tuple to
# give a product of roots of unity, all powers of one root zeta of
# order q = b**max(e).  For a family of functions whose pairwise
# differences stay within the depth budget, the Gram matrix of the
# characters must equal b**m times the identity — a machine-checkable
# certificate that the family cannot exceed b**m functions.  Every
# Gram entry is an integer combination of powers of zeta, so the
# certificate is decided exactly, with no tolerance.
import numpy as np

from evnets import (net_to_mooa, enumerate_profiles, build_block_family,
                    char_exponents, gram_certificate)
from evnets.corpus import hammersley

arr = net_to_mooa(hammersley(2, 3), 0, (1, 1))
print("base", arr.base, "m", arr.m, "beta", arr.beta)

# Families are indexed by depth profiles kappa (blocks used per
# coordinate).  The maximal profiles exhaust the budget.
profiles = enumerate_profiles(arr.m, arr.u, arr.e, arr.beta)
print("maximal profiles:", profiles.tolist())

for kappa in profiles.tolist():
    family = build_block_family(arr, kappa)
    cert = gram_certificate(arr, family)
    print("kappa", kappa, "family size", len(family),
          "certificate:", "PASS" if cert else "FAIL")

# A character is stored as its exponent of zeta on every row.  The zero
# function has exponent 0 everywhere; a nonzero function inside the
# budget takes every exponent equally often, so its sum vanishes.
zero = build_block_family(arr, (0, 0))[0]
print("zero-function exponents:", char_exponents(arr, zero).tolist())
other = build_block_family(arr, (1, 0))[1]
print("nonzero-function exponents:", char_exponents(arr, other).tolist(),
      "counts per exponent:", np.bincount(char_exponents(arr, other)).tolist())

# On a damaged array some Gram entry does not vanish, and the
# certificate reports the offending pair with the exact tally of
# exponent differences: counts[t] rows contribute zeta**t.
from evnets.corpus import flip_digit
bad = net_to_mooa(flip_digit(hammersley(2, 3), 1, 0, 1), 0, (1, 1))
cert = gram_certificate(bad, build_block_family(bad, (3, 0)))
print("damaged array certificate:", "PASS" if cert else "FAIL", cert.witness)
