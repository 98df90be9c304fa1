"""Errors raised by this package, and read_records, the one reader of its
line-based input files."""


class KtqError(Exception):
    """Base class for errors raised by this package."""


class FormatError(KtqError):
    """Malformed input: bad table data, unparsable file, index out of range."""


class MathError(KtqError):
    """A mathematical precondition does not hold (e.g. the table is not a
    quasigroup, or an involutory operation is required)."""


def read_records(text, keyword, record):
    """The header's n and the tuple of record(n, fields) for each later line.

    The rules every input format shares: '#' starts a comment, blank lines
    are skipped, fields are split at whitespace, and the first line is the
    header '<keyword> <n>' with an integer n (no header, and n None, when
    keyword is None).  A FormatError, also one raised by record, names its
    line as 'line N: ...'.
    """
    n, values = None, []
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            if n is not None or keyword is None:
                values.append(record(n, fields))
            elif len(fields) == 2 and fields[0] == keyword:
                n = integers(fields[1:])[0]
            else:
                raise FormatError("expected header '%s <n>'" % keyword)
        except FormatError as exc:
            raise FormatError("line %d: %s" % (lineno, exc)) from None
    if n is None and keyword is not None:
        raise FormatError("no header '%s <n>': the file is empty" % keyword)
    return n, tuple(values)


def integers(fields):
    """The fields as integers; FormatError if one is not."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise FormatError("expected integers, got %r" % " ".join(fields)) from None
