"""``python -m repro`` -- see :mod:`repro.cli`.

Exit status: 0 when a command finds nothing, 1 when it reports findings
(violations, lint errors at the ``--fail-on`` gate, a void coverage
guarantee, a fuzz disagreement), 2 when it cannot run.  An error -- a
:class:`~repro.errors.ReproError` such as an unreadable or missing
trace, or a refused option -- prints one ``repro: error:`` line on
stderr instead of a traceback, so a script can tell "violations found"
from "the check did not run".
"""

import sys

from repro.cli import main
from repro.errors import ReproError

if __name__ == "__main__":
    try:
        status = main()
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        status = 2
    except SystemExit as refusal:
        # The CLI refuses bad option combinations with SystemExit(message).
        if not isinstance(refusal.code, str):
            raise
        print(f"repro: error: {refusal.code}", file=sys.stderr)
        status = 2
    sys.exit(status)
