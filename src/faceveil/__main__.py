"""``python -m faceveil``: the faceveil command line."""

import sys

from .cli import main

sys.exit(main())
