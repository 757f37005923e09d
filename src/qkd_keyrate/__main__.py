"""``python -m qkd_keyrate``: the ``qkd-keyrate`` command line, for a
checkout that is not installed (``PYTHONPATH=src python -m qkd_keyrate``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
