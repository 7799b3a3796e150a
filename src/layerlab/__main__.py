"""``python -m layerlab``: the command-line interface of layerlab.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
