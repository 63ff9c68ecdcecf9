"""`python -m grrs`: the `grrs` command, exiting with its code."""

import sys

from .cli import main

sys.exit(main())
