"""Regenerate expected.json, the outputs the benchmark checks against.

    python3 bench/make_expected.py

It records, at the current commit, for every suite form and README algebra
composition: the failed items of validate_form and, for the grid-auditable
ones, the identity-audit classification of every sample in the form's pool.
Regenerate only with a deliberate change of
behaviour, and say so in the change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402,F401  (pins BLAS threads and puts src/ on the path first)
import workloads as wl  # noqa: E402
from saddlelift import catalog  # noqa: E402


def main() -> int:
    suite = catalog.default_suite() + wl.readme_compositions()
    expected = {
        "validate": {f.name: wl.validate_failures(f) for f in suite},
        "identity": {
            f.name: [wl.identity_class(f, x) for x in wl.audit_pool(f)]
            for f in suite
            if wl.grid_auditable(f)
        },
    }
    wl.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
