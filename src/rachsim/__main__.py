"""`python -m rachsim`: the same command line as the `rachsim` script."""

import sys

from .cli import main

sys.exit(main())
