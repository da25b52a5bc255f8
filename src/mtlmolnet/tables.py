"""The CSV format of every file the program reads or writes.

``read_csv`` is the one reader: it names the file and the physical line of
each refusal. ``number`` is the one rule for a numeric cell: the number
``float`` (or ``int``) parses from the text, refused unless it is finite.
``write_csv`` is the one writer, in the one dialect of ``writer``: it
writes a float cell as ``repr(float(x))``, the shortest text that reads back
as the same float, and None as an empty cell. ``stdout`` is the one way to
standard output, in UTF-8 like every file, whatever the locale; ``echo``
prints a line through it.
"""

import codecs
import contextlib
import csv
import io
import math
import sys
from pathlib import Path


class DatasetError(ValueError):
    """An input that the program cannot use: a file, a row, a molecule, a checkpoint."""


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


def number(text, path, line, column=None, kind=float):
    """The number ``kind`` (float or int) parses from the cell ``text`` on
    line ``line`` of ``path``; a cell it cannot parse, or a float that is
    not finite, is a MalformedRow naming the file, the line, the column
    when one is given, and the cell."""
    try:
        value = kind(text)
    except ValueError:
        raise MalformedRow(f"{path}:{line}: bad {column or 'number'} {text!r}") from None
    if kind is int or math.isfinite(value):
        return value
    raise MalformedRow(f"{path}:{line}: non-finite {column or 'value'} {text!r}")


def writer(fh):
    """A CSV writer on the text file ``fh`` (opened with ``newline=""``)."""
    return csv.writer(fh, lineterminator="\n")


@contextlib.contextmanager
def stdout():
    """A text stream onto standard output that encodes UTF-8, whatever the
    locale's encoding; a stream with no byte buffer under it (a StringIO in
    ``sys.stdout``) takes the text as it is."""
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        yield out
        return
    out.flush()  # what was printed before comes first
    fh = io.TextIOWrapper(buffer, encoding="utf-8", newline="", write_through=True)
    try:
        yield fh
    finally:
        fh.flush()
        fh.detach()  # standard output stays open


def echo(text):
    """Print the line ``text`` to standard output in UTF-8."""
    with stdout() as fh:
        print(text, file=fh)


def write_csv(path, header, rows):
    """Write ``header`` and then ``rows`` to the file ``path`` in UTF-8, as
    ``read_text`` reads it, or to standard output when ``path`` is None. A
    float cell (numpy's float64 is one) is written as ``repr(float(x))``;
    the csv module writes None as an empty cell and any other cell as its
    ``str``."""
    sink = stdout() if path is None else open(path, "w", encoding="utf-8", newline="")
    with sink as fh:
        out = writer(fh)
        out.writerow(header)
        out.writerows([repr(float(c)) if isinstance(c, float) else c for c in row]
                      for row in rows)
