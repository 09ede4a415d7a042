"""Exact-arithmetic verification of surface and toric flag invariants.

Subpackages and modules:

  exactmath   rationals, sparse polynomials in (u, v, c), chambers, exact
              iterated integration
  linalg      dense exact linear algebra over Q
  lp          exact rational simplex (Bland's rule)
  toric3      simplicial complete fans in rank 3: intersection numbers,
              pullbacks, invariant-surface restriction, divisor polytopes,
              interval Zariski certificates
  surfzar     Zariski decompositions on surfaces with rational Gram
              matrices, pseudoeffective thresholds, chamber scans
  flagdelta   S-invariants of flags, correction terms, log discrepancies,
              delta bounds
  scenarios   fixture data and the per-family re-derivation pipelines
  cli         fano-delta command line (verify / compute / report)

Everything computes over Q; no floating point exists anywhere.
"""

__version__ = "0.1.0"
