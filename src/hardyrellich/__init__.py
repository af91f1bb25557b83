"""Verification and sharp-constant estimation for Poincare-Hardy and
Poincare-Rellich inequalities on hyperbolic space and warped-product models."""

__version__ = "0.1.0"

from . import errors, manifolds, radial, pencils, iterated_log  # noqa: F401,E402
from . import supersolutions, quotients, hardy, rellich, euclid  # noqa: F401,E402
# cli is left out: ``python -m hardyrellich.cli`` would find it imported
# before running it as __main__ (a runpy warning); ``python -m hardyrellich``
# runs it through __main__.py
from . import config, reports, suites  # noqa: F401,E402
