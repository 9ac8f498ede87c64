"""`python -m lgorb ...`: the `lgorb` command without installing the package."""

import sys

from lgorb.cli import main

sys.exit(main())
