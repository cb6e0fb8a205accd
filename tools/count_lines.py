"""Count the non-blank, non-comment lines of each module of ``src/lagrom``.

A line counts unless it is empty or whitespace, or its first non-blank
character is ``#``; docstrings count.  Prints one ``<lines> <module>`` row
per module and the total.  Run from anywhere: ``python tools/count_lines.py``.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lagrom"


def count_lines(path) -> int:
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = count_lines(path)
        total += count
        print("%6d %s" % (count, path.name))
    print("%6d total" % total)


if __name__ == "__main__":
    main()
