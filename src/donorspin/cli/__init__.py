"""Command-line interface: config, manifests, and subcommand handlers."""

from .config import ConfigError, SCHEMA, default_config, load_config, render_config
from .manifest import build_manifest, file_sha256, json_ready

__all__ = [
    "ConfigError",
    "SCHEMA",
    "build_manifest",
    "default_config",
    "file_sha256",
    "json_ready",
    "load_config",
    "render_config",
]
