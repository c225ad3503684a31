"""``python -m selbergkit``: the same command line as ``selbergkit``."""

import sys

from selbergkit.cli import main

sys.exit(main())
