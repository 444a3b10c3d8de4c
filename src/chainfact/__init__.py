"""Exact verification toolkit for graded matrix factorizations of chain polynomials."""

__version__ = "0.1.0"

# Names the Hom engine (``homcalc``) behind the stored tables.  Every report
# carries it as provenance and the table cache keys on it, so a change of
# engine never serves a table computed by an older one.  It lives here, not
# in ``homcalc``, so that a report needs no import of the engine.
ENGINE_ID = "koszul-restriction-5"
