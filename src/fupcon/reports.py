"""Deterministic report rendering and the run configuration record.

Reports are JSON with sorted keys and a schema version; identical configs
must produce byte-identical reports, so nothing time- or environment-
dependent is ever placed in them.  All rationals are exact 'p/q' strings.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_SIZE = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    """Parsed command-line inputs for one invocation."""

    command: str
    moduli: tuple[int, ...] = ()
    winding: tuple[int, ...] = ()
    n_lo: int = 0
    n_hi: int = 0
    epsilon: Fraction | None = None
    depth: int = 2
    n1_override: int | None = None
    candidates: int = 20
    loops: tuple[tuple[int, ...], ...] = ()
    image_stages: tuple[int, ...] = ()
    tower_levels: bool = False
    size_guard: int = 10**6
    out: str | None = None
    out_dir: str | None = None
    timing: bool = False


def render_report(report: dict) -> str:
    """Canonical byte form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
