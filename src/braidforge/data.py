"""The golden data, packaged under braidforge/goldens/."""

from __future__ import annotations

import json
from importlib import resources

_GOLDENS = resources.files("braidforge") / "goldens"


def golden_json(relpath: str):
    return json.loads((_GOLDENS / relpath).read_text(encoding="utf-8"))


def golden_names(subdir: str) -> list:
    """Sorted stem names of the golden JSON files in a goldens/ subdirectory."""
    return sorted(p.name[:-5] for p in (_GOLDENS / subdir).iterdir()
                  if p.name.endswith(".json"))
