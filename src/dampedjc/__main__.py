"""`python -m dampedjc [options]` runs the command line, as `dampedjc` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
