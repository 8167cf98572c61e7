"""Worker-lane stand-in."""
