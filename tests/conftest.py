# The package sets the size of sympy's expression cache when it is imported,
# and sympy reads that size only on its own first import.  Test modules such as
# test_acceptance.py import sympy before dtnzeta, so import the package here,
# before any test module is collected, for the suite to run under its size.
import dtnzeta  # noqa: F401  (first: see above)

import warnings

from hypothesis import settings

# Hypothesis's pytest plugin imports this module when a @given test fails, and
# the import warns (DeprecationWarning from mypy_extensions).  Under
# filterwarnings = ["error"] that warning would end the session with
# INTERNALERROR, so import it once here with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("dtnzeta", database=None, max_examples=10, deadline=None,
                          print_blob=True)
settings.load_profile("dtnzeta")
