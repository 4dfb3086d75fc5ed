"""Run ``repro check-trace ARGS...`` and stop it before it stores its
whole-result cache entry, as a driver killed at that moment would be
(``tests/interrupt.py``): every shard entry of a ``--jobs N --cache-dir
DIR`` check stays, the state a resume starts from.  Exits 0 when the
run was stopped so, 1 when it finished.

    python ci/interrupted_check.py smoke.jsonl --jobs 2 --cache-dir rc
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.cli import main  # noqa: E402
from tests.interrupt import interrupted  # noqa: E402

with interrupted():
    main(["check-trace", *sys.argv[1:]])
