"""Exact-arithmetic toolkit for matrix groups over rings of S-integers.

Submodules:
    errors       domain errors, and the reader and writer for user files
    primes       prime sieve, per-class prime counts, primality, trial factorization
    rings        coefficient rings (Q, Z/m, F_p) and the integer lift of rational rows
    poly         dense univariate polynomials, gcd, factorization mod p, Sturm
    matrix       exact dense matrices over Q and Z/m; rref, kernels and spans over Q
    numberfield  Q[x]/(m), complete splitting of primes, Chebotarev scans
    ideals       Dedekind factorization of primes, residue fields F_{p^f} (ExtField)
    abelian      exact check of a field's abelian certificate
    padics       truncated p-adic integers and Hensel lifting
    mpoly        sparse multivariate polynomials in matrix coordinates
    groups       group presentations, tangent spaces, restriction of scalars
    congruence   reduction maps, image records, surjectivity scans
    chain        Schreier-Sims stabiliser chain that counts an image
    closure      breadth-first closure over Z/m
    density      unipotent one-parameter subgroups, Ad-span density evidence
    catalog      built-in and on-disk groups and fields
    report       canonical JSON/text rendering, content-addressed scan cache
    cli          command-line front end
"""

__version__ = "0.1.0"
