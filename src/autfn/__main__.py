"""``python -m autfn``: the ``autfn`` command line, also from a checkout
that is on ``PYTHONPATH`` but not installed."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
