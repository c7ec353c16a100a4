"""``python -m donorspin.cli``: the same entry point as the ``donorspin`` script."""
from .main import main
raise SystemExit(main())
