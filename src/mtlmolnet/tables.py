"""The CSV format of every file the program reads or writes: ``read_csv``
is the one reader, which names the file and the physical line of each
refusal, and ``writer`` the one dialect of every CSV output."""

import codecs
import csv
import io
from pathlib import Path


class DatasetError(ValueError):
    """An input file, or a row of one, that the program cannot use."""


class EmptyDataset(DatasetError):
    pass


class MalformedRow(DatasetError):
    pass


def read_text(path):
    """The UTF-8 text of the file ``path``, without a leading byte-order
    mark; bytes that are not UTF-8 are refused by line and byte offset."""
    raw = Path(path).read_bytes()
    skip = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw[skip:].decode("utf-8")
    except UnicodeDecodeError as err:
        at = skip + err.start
        line = len((raw[:at] + b".").splitlines())  # "\n", "\r" and "\r\n" end lines, as in csv
        raise DatasetError(f"{path}:{line}: not UTF-8 at byte {at}") from None


def read_csv(path):
    """``(header, rows)`` of the CSV file ``path``: the first line's fields,
    and an iterator of ``(line, fields)`` over the non-blank rows after it.
    Each row's width is checked against the header's as it is reached, so
    a caller's header checks come first."""
    rows = _rows(path, csv.reader(io.StringIO(read_text(path), newline="")))
    header = next(rows)
    if not header:
        raise EmptyDataset(f"{path}:1: no header row")
    return header, rows


def _rows(path, reader):
    """The header's fields (None for an empty file), then ``(line, fields)``
    of each non-blank row, refused unless it has the header's width."""
    try:
        header = next(reader, None)
        yield header
        for fields in reader:
            if fields and len(fields) != len(header):
                raise MalformedRow(f"{path}:{reader.line_num}: expected {len(header)} fields "
                                   f"as in the header, got {len(fields)}")
            if fields:
                yield reader.line_num, fields
    except csv.Error as err:
        raise MalformedRow(f"{path}:{reader.line_num}: {err}") from None


def writer(fh):
    """A CSV writer on the text file ``fh`` (opened with ``newline=""``)."""
    return csv.writer(fh, lineterminator="\n")
