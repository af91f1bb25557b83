"""``python -m hardyrellich``: the ``hardyrellich`` command line."""

import sys

from .cli import main

sys.exit(main())
