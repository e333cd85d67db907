"""Small helpers for deterministic file output."""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import ModelFormatError, ModelIntegrityError


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no whitespace so equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory and rename over the target."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_float(x: float) -> str:
    """Shortest exact decimal form, identical across runs."""
    return repr(float(x))


def save_checked_json(path, payload: dict, indent=None) -> None:
    """Write payload plus the SHA-256 `checksum` of its canonical JSON."""
    body = dict(payload, checksum=checksum(canonical_json(payload)))
    atomic_write_text(Path(path), json.dumps(body, indent=indent, sort_keys=True) + "\n")


def load_checked_json(path, format_name, version, what, writer) -> dict:
    """Payload of a save_checked_json file, checked for format tag, version and
    checksum in that order; errors name the file kind and the command that writes it."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError:
        raise ModelIntegrityError(
            f"{path}: not valid JSON (file truncated or corrupt)"
        ) from None
    if not isinstance(payload, dict) or payload.get("format") != format_name:
        raise ModelFormatError(f"{path}: not a {what} file")
    if payload.get("format_version") != version:
        raise ModelFormatError(
            f"{path}: unsupported format version {payload.get('format_version')!r}; "
            f"rerun {writer} to write a version {version} file"
        )
    stated = payload.pop("checksum", None)
    if stated != checksum(canonical_json(payload)):
        raise ModelIntegrityError(f"{path}: checksum mismatch")
    return payload
