"""``python -m fewbench``: the command line of :mod:`fewbench.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
