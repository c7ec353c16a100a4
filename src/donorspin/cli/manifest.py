"""Run manifests: resolved config, version, constants hash, checksums and
the software and machine the run used."""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
from typing import Any

import numpy as np

from .. import __version__
from ..constants import CONSTANTS


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def json_ready(obj: Any) -> Any:
    """Recursively convert to JSON-safe values; non-finite floats become
    the strings "inf", "-inf", "nan" so the output stays strict JSON."""
    if isinstance(obj, dict):
        return {str(key): json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(value) for value in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def build_manifest(
    command: str,
    config: dict[str, dict[str, Any]],
    started: float,
    output_paths: list[str],
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The manifest of a run that began at `time.monotonic()` = `started`
    and wrote `output_paths`; its wall time runs up to this call."""
    manifest = {
        "command": command,
        "version": __version__,
        "constants_hash": CONSTANTS.hash(),
        "config": json_ready(config),
        "wall_time_s": time.monotonic() - started,
        "outputs": {os.path.basename(p): file_sha256(p) for p in output_paths},
        "environment": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    if extra:
        manifest.update(json_ready(extra))
    return manifest

