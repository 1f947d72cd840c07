"""`python -m qsphere verify ...` runs the command line of `qsphere.cli`."""

import sys

from .cli import main

sys.exit(main())
