"""Text forms shared by every report and CSV file the package writes."""
from __future__ import annotations


def num(value) -> str:
    """A number as report or CSV text: nine significant digits, ``none`` for None."""
    return "none" if value is None else f"{float(value):.9g}"


def report_text(rows) -> str:
    """One ``key = value`` line per (key, value) pair, newline-terminated."""
    return "".join(f"{key} = {value}\n" for key, value in rows)
