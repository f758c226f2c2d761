"""Shared output conventions: 12-significant-digit floats, CSV tables, JSON-safe records."""
from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Optional, Union

import numpy as np

__all__ = ["fmt12", "round12", "write_csv", "write_text", "json_ready", "dumps_stable"]


def fmt12(x: float) -> str:
    """Canonical float rendering: 12 significant digits."""
    return format(float(x), ".12g")


def round12(x: float) -> float:
    """The float value nearest the 12-digit rendering (keeps JSON numeric)."""
    v = float(x)
    if not math.isfinite(v):
        return v
    return float(fmt12(v))


def write_csv(
    path: Union[str, Path, None],
    header: str,
    rows: Iterable[str],
    config_line: Optional[str] = None,
) -> None:
    """Write an optional ``#config`` echo, the header and the rows, one per line.

    The table goes to ``path`` as ASCII, or to stdout when ``path`` is None.
    """
    lines = [f"#config {config_line}"] if config_line else []
    text = "\n".join([*lines, header, *rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        write_text(path, text)


def write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` as ASCII, making missing parent directories
    at write time; if the write raises, the ones made are removed again."""
    path = Path(path)
    made = [d for d in path.parents if not d.exists()]  # innermost first
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="ascii")
    except BaseException:
        if made:  # then a partial file is new too
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def json_ready(obj: Any) -> Any:
    """Recursively convert to JSON-serializable values with canonical floats.

    numpy scalars/arrays are unwrapped, floats rounded to 12 significant
    digits, non-finite floats rendered as strings (JSON has no inf/nan).
    """
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return repr(v)
        return round12(v)
    return obj


def dumps_stable(obj: Any) -> str:
    """Deterministic JSON: sorted keys, canonical floats, stable separators."""
    return json.dumps(json_ready(obj), sort_keys=True, separators=(", ", ": "))
