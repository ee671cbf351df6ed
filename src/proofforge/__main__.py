"""`python -m proofforge ...` runs the forge command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
