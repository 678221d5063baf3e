"""Test-session setup shared by every test module.

``memsfde`` pins its BLAS to one thread, but only if numpy is not imported
yet (see ``memsfde/__init__.py``).  Most test modules import numpy first, so
without this import the in-process statistical gates would run with the
machine's default BLAS thread count, and their values would depend on its
core count.  pytest imports this file before any test module.
"""

import memsfde  # noqa: F401  (imported before numpy for its BLAS pin)
