"""``python -m donorspin.cli`` and the ``donorspin`` script's entry point."""

import signal

from . import _terminated


def run() -> int:
    """Run the command that sys.argv names. A SIGTERM from here on ends
    the run with exit 143, also one that arrives while the CLI loads."""
    signal.signal(signal.SIGTERM, _terminated)
    from .main import main

    return main()


if __name__ == "__main__":
    raise SystemExit(run())
