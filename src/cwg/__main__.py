"""``python -m cwg``: the same command line as the ``cwg`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
