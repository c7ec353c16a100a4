"""``python -m donorspin.cli``; the ``donorspin`` script runs the same `main`."""

from .main import main

if __name__ == "__main__":
    raise SystemExit(main())
