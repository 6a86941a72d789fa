"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: configuration problems
exit 2, I/O and parse problems exit 1, incompatible data exits 3.
Text readers decode inside `text_input`, which names the undecodable file.
"""

import contextlib


class NlispecError(Exception):
    """Base class for all toolkit errors."""


class ValidityRangeError(NlispecError, ValueError):
    """A wavelength, grid or beam fell outside a model's validity range."""


class ConfigError(NlispecError, ValueError):
    """Invalid run configuration; `key` holds the offending key path."""

    def __init__(self, message, key=None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key


class LineParseError(NlispecError, ValueError):
    """Unparseable line-list input; names the file and record location."""

    def __init__(self, message, record=None, columns=None, path=None):
        loc = []
        if record is not None:
            loc.append(f"record {record}")
        if columns is not None:
            loc.append(f"columns {columns[0]}-{columns[1]}")
        if loc:
            message = f"{', '.join(loc)}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.record = record
        self.columns = columns


class MapFormatError(NlispecError, ValueError):
    """Corrupt or unsupported interferogram map container."""


class AxisMismatchError(NlispecError, ValueError):
    """Two maps that must share axes/config do not."""


@contextlib.contextmanager
def text_input(path, error):
    """Raise `error` naming `path` for bytes of it that are not UTF-8,
    decoded anywhere in the `with` block."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
