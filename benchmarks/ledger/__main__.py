"""``python -m benchmarks.ledger`` — see :mod:`benchmarks.ledger.run`."""

import sys

from benchmarks.ledger.run import main

sys.exit(main())
