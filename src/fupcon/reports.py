"""Deterministic report rendering and the exit codes.

Reports are JSON with sorted keys and a schema version; identical inputs
must produce byte-identical reports, so nothing time- or environment-
dependent is ever placed in them.  All rationals are exact 'p/q' strings.
"""

import json

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_SIZE = 3
EXIT_IO = 4


def render_report(report: dict) -> str:
    """Canonical byte form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
