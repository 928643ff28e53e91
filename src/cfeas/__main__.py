"""`python -m cfeas`: the command line, from a source checkout or an install."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
