"""Command-line interface: config, manifests, and subcommand handlers."""

import signal

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".config": ("ConfigError", "SCHEMA", "default_config", "load_config", "render_config"),
    ".manifest": ("build_manifest", "file_sha256", "json_ready"),
})


def _terminated(signum, frame):
    """The CLI's SIGTERM handler: end the run as SystemExit(143)."""
    # a second SIGTERM (`timeout` sends one to the process and one to its
    # group) must not cut short the shutdown of the workers
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)
