"""``python -m thinpde``: the same command line as the ``thinpde`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
