"""Trace I/O: movement traces and the EPFL loader."""
