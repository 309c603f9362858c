"""`python -m crossvec ...` runs the command line, as the `crossvec` script does."""

import sys

from .cli import main

sys.exit(main())
