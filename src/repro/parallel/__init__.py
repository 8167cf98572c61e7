"""Worker processes: the crash-safe supervisor and its lanes."""
