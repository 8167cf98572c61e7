"""Trace I/O: movement traces and the EPFL loader."""

from repro.traces.epfl import load_cabspotting_dir, parse_cabspotting_file, synthetic_epfl
from repro.traces.format import read_movement_trace, write_movement_trace

__all__ = [
    "load_cabspotting_dir",
    "parse_cabspotting_file",
    "read_movement_trace",
    "synthetic_epfl",
    "write_movement_trace",
]
