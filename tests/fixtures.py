"""Data files the tests read."""

from pathlib import Path

BUNDLED_PATH = Path(__file__).parent / "data" / "bundled_catalog.txt"
# the bundled catalog in the file format: a complete example of a
# --catalog file, and the text that the tests edit
BUNDLED_TEXT = BUNDLED_PATH.read_text("utf-8")
