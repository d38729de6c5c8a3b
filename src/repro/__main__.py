"""``python -m repro`` — experiment CLI (see repro.harness.cli)."""

import sys

from repro.harness.cli import main

sys.exit(main(sys.argv[1:]))
