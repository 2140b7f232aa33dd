"""Self-tests of the end-to-end benchmark (not part of tier-1):

    python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))
