"""Command-line interface: config, manifests, and subcommand handlers."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".config": ("ConfigError", "SCHEMA", "default_config", "load_config", "render_config"),
    ".manifest": ("build_manifest", "json_ready"),
})
