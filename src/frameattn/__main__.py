"""``python -m frameattn``: the ``frameattn`` command."""

import sys

from .cli import main

sys.exit(main())
