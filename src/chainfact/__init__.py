"""Exact verification toolkit for graded matrix factorizations of chain polynomials."""

__version__ = "0.1.0"

# Names the Hom engine (``homcalc``) behind a report's tables.  Every report
# carries it as provenance, and it changes whenever a table can change.  It
# lives here, not in ``homcalc``, so that a report needs no import of the
# engine.
ENGINE_ID = "koszul-kunneth-6"
