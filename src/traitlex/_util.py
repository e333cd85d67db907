"""Small helpers for deterministic file output and checked file input."""

import csv
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

from .errors import ModelFormatError, ModelIntegrityError

# Text decoded from UTF-8 holds no surrogate, so in decoded JSON one can only
# come from a \u escape of one; such an escape without its pair decodes to a
# lone surrogate, which is no character and which no UTF-8 writer can encode.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")
# The characters that make a CSV field need quotes (RFC 4180).  They include
# a lone \r, which csv.writer with "\n" line ends would leave unquoted and
# csv.reader would then split.
_CSV_SPECIAL = re.compile('[,"\r\n]')


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no whitespace so equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def checksum(data: str | bytes) -> str:
    """SHA-256 hex digest of bytes, or of a string's UTF-8 encoding."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def atomic_write_text(path, text: str | bytes) -> None:
    """Write text as UTF-8, or bytes as they are, via a temp file in the same
    directory, and rename it over the target."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8") if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_float(x: float) -> str:
    """Shortest exact decimal form, identical across runs."""
    return repr(float(x))


def is_int(v) -> bool:
    """A JSON integer that fits int64; true and false are not integers here."""
    return type(v) is int and -(2**63) <= v < 2**63


def is_int_list(v) -> bool:
    """A list of is_int values, checked by C-level passes (type set, min, max)."""
    return isinstance(v, list) and (
        not v or (set(map(type, v)) == {int} and -(2**63) <= min(v) and max(v) < 2**63))


def is_int_pairs(v) -> bool:
    """A list of two-element is_int_list lists."""
    return isinstance(v, list) and all(is_int_list(p) and len(p) == 2 for p in v)


def is_number(v) -> bool:
    return type(v) in (int, float)


def is_str_list(v) -> bool:
    return isinstance(v, list) and set(map(type, v)) <= {str}


def check_fields(record, fields: dict, where: str, error=ModelFormatError,
                 also=None) -> None:
    """Refuse a record that is not an object, lacks a field of `fields`
    ({name: (kind, ok)}) or holds one that fails `ok`, with `error` naming
    `where`, the field and the expected kind.  A field given as
    (kind, ok, default) may be missing and is then set to `default`.  Given
    `also`, the other keys the record may hold, any further key is refused
    by name."""
    if not isinstance(record, dict):
        raise error(f"{where}: must be a JSON object")
    for name, field in fields.items():
        if name not in record and len(field) == 3:
            record[name] = field[2]
        if name not in record or not field[1](record[name]):
            raise error(f"{where}: field {name!r} must be {field[0]}")
    if also is not None:
        unknown = [name for name in record if name not in fields and name not in also]
        if unknown:
            raise error(f"{where}: unknown field {unknown[0]!r}")


def utf8_fault(path) -> str:
    """"<path> line N: not UTF-8 text" for the first line of `path` that does
    not decode.  Readers call it only once a UnicodeDecodeError has been
    raised, so good input costs nothing more; lines are split as text mode
    splits them."""
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return f"{path} line {lineno}: not UTF-8 text"
    return f"{path}: not UTF-8 text"


def decode_json(raw: str, where: str, error=ModelIntegrityError, field_error=None):
    """The value of the JSON text `raw`.  Text that does not parse, holds an
    integer past int's 4300-digit limit or nests too deep is refused with
    `error` naming `where`; a lone surrogate in a string or key with
    `field_error` (by default `error`) naming the field.  Only text holding a
    backslash can hold a surrogate escape, so other text skips that scan."""
    try:
        value = json.loads(raw)
        field = (_surrogate_path(value, "")
                 if "\\" in raw and _SURROGATE_ESCAPE.search(raw) else None)
    except ValueError as e:  # a JSONDecodeError, or an integer past the digit limit
        reason = e.msg if isinstance(e, json.JSONDecodeError) else str(e).partition(":")[0]
        raise error(f"{where}: not valid JSON ({reason})") from None
    except RecursionError:
        raise error(f"{where}: not valid JSON (nested too deep)") from None
    if field is not None:
        raise (field_error or error)(
            f"{where}: field {field!r} holds an unpaired surrogate escape (\\ud800-\\udfff)")
    return value


def _surrogate_path(value, path):
    if isinstance(value, str):
        return path if _SURROGATE.search(value) else None
    if isinstance(value, dict):
        for key, item in value.items():
            sub = f"{path}.{key}" if path else key
            found = sub if _SURROGATE.search(key) else _surrogate_path(item, sub)
            if found is not None:
                return found
    elif isinstance(value, list):
        for i, item in enumerate(value):
            found = _surrogate_path(item, f"{path}[{i}]")
            if found is not None:
                return found
    return None


def read_csv(path, what: str, error) -> tuple:
    """Header and (line number, row) pairs of a UTF-8 CSV file, blank rows
    skipped; an empty file, a byte that is not UTF-8 or a line csv.reader
    refuses (a field past its size limit, say) raises `error` naming the
    file."""
    try:
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if row]
    except UnicodeDecodeError:
        raise error(utf8_fault(path)) from None
    except csv.Error as e:
        raise error(f"{path} line {reader.line_num}: {e}") from None
    if header is None:
        raise error(f"{path}: empty {what} file")
    return header, rows


def _csv_field(field: str) -> str:
    return '"' + field.replace('"', '""') + '"' if _CSV_SPECIAL.search(field) else field


def csv_text(rows) -> str:
    r"""CSV text of rows of strings, each row ending in "\n"; a field holding
    a comma, a quote, \r or \n is quoted, its quotes doubled."""
    # one search per row: only a row whose fields hold such a character needs quotes
    return "".join(",".join(map(_csv_field, row) if _CSV_SPECIAL.search("".join(row)) else row)
                   + "\n" for row in rows)


def save_json(path, payload) -> None:
    """Write a traitlex JSON file: indented, sorted keys and a final newline."""
    atomic_write_text(Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json(path, format_name, version, what, writer=None) -> dict:
    """Payload of a traitlex JSON file, refused as ModelIntegrityError if it is
    not UTF-8 JSON, and as ModelFormatError if a string holds a lone surrogate
    or it is not an object with `format_name` in `format` and `version` in
    `format_version`; a wrong version names the command that writes a current
    file, if there is one."""
    return _read_json(path, format_name, version, what, writer)[1]


def _read_json(path, format_name, version, what, writer) -> tuple:
    """The file's bytes, read once, and its payload, checked as load_json says."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ModelIntegrityError(f"{path}: not valid JSON (not UTF-8 text)") from None
    payload = decode_json(text, str(path), ModelIntegrityError, ModelFormatError)
    if not isinstance(payload, dict) or payload.get("format") != format_name:
        raise ModelFormatError(f"{path}: not a {what} file (field 'format' must be "
                               f"{format_name!r})")
    if payload.get("format_version") != version:
        hint = f"; rerun {writer} to write a version {version} file" if writer else ""
        raise ModelFormatError(
            f"{path}: unsupported format version {payload.get('format_version')!r} "
            f"in field 'format_version'{hint}"
        )
    return raw, payload


# A checked file is this 79-byte prefix holding the checksum, 64 hex digits,
# then canonical_json(payload) after its "{", then "\n"; the checksum is the
# SHA-256 of every byte after the prefix.
_CHECKSUM_PREFIX = b'{"checksum":"%s",'


def save_checked_json(path, payload: dict) -> None:
    """Write payload on one line, behind the SHA-256 `checksum` of the bytes that follow it."""
    body = canonical_json(payload)[1:].encode("utf-8") + b"\n"
    atomic_write_text(Path(path), _CHECKSUM_PREFIX % checksum(body).encode() + body)


def load_checked_json(path, format_name, version, what, writer) -> dict:
    """Payload of a save_checked_json file: load_json's checks, then the
    checksum of the file's own bytes; any other layout is a mismatch."""
    raw, payload = _read_json(path, format_name, version, what, writer)
    digest = checksum(raw[79:])
    if raw[:79] != _CHECKSUM_PREFIX % digest.encode() or payload.pop("checksum", None) != digest:
        raise ModelIntegrityError(f"{path}: checksum mismatch")
    return payload
