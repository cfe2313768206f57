"""Parser for the catalog text format.

The format is line oriented and deliberately small::

    # comment
    catalog_version: 1

    group {
      name: "SO(4)"
      pi1 {
        free_rank: 0
        torsion: [2]
        generators: ["alpha"]
      }
      ...
    }

Each line is one of: ``key: value``, ``key {`` opening a block, ``}``
closing it, or blank/comment.  Values are integers, ``true``/``false``,
quoted strings, bare words, or a one-line list ``[a, b, c]`` of those.
Repeated keys inside a block are kept in order (used for ``ideal``
blocks).

:func:`parse` returns the top-level entries as tuples ``(key, line,
value, children)``: ``children`` lists a block's entries, or is None for
a ``key: value`` line, and the line lets validation errors point at the
offending line.  Record builders read a block through :class:`Block`.

Most lines of a catalog repeat an earlier line verbatim (``}``, ``key {``,
``torsion: []``), so :func:`parse` matches each distinct line once per
call and reads its later appearances from that match.  A key repeated n
times in one block, or a list item of n adjacent quoted strings, costs
time linear in n.
"""

from __future__ import annotations

import sys
from functools import cache


class SpinrError(Exception):
    """Base of every error that an input can cause: a catalog file, a
    name, a rank.  Each subclass also keeps its builtin base."""


class CatalogParseError(SpinrError, ValueError):
    """Syntax or validation error in a catalog file, with a line number."""

    def __init__(self, message: str, line: int, path: str = "<catalog>"):
        self.message = message
        self.line = line
        self.path = path
        super().__init__(f"{path}:{line}: {message}")


Scalar = str | int | bool


# how a "must be" message names a value of each type
_KIND_WORDS = {
    str: "a string", int: "an integer", bool: "true or false", list: "a list"
}
_PLURAL = {str: "strings", int: "integers"}
_REQUIRED = object()


def entry_value(entry: tuple, kind: type):
    """The value of a ``key: value`` entry, of exactly type ``kind``: an
    int is never a bool."""
    key, line, value, _ = entry
    if value.__class__ is kind:
        return value
    if value is None:
        raise CatalogParseError(f"'{key}' must carry a value", line)
    raise CatalogParseError(f"'{key}' must be {_KIND_WORDS[kind]}, got {value!r}", line)


class Block:
    """One block's entries, read through a key table built in one pass that
    refuses the first key not in ``known``.  A repeated key is refused only
    when read as one value; ``items`` reads them all (``ideal`` blocks)."""

    __slots__ = ("line", "_table")

    def __init__(self, entry: tuple, known: frozenset[str]):
        key, self.line, _, entries = entry
        if entries is None:
            raise CatalogParseError(f"'{key}' must be a block", self.line)
        self._table = table = {}
        for child in entries:
            k = child[0]
            if k not in known:
                raise CatalogParseError(f"unknown key '{k}' in '{key}' block", child[1])
            found = table.get(k)
            if found is None:
                table[k] = [child]
            else:
                found.append(child)

    def build(self, make, *args):
        """``make(*args)``, with any ValueError it raises reported at this
        block's line.  Read the typed keys first and pass them in, so that
        their own errors keep the key's line."""
        try:
            return make(*args)
        except ValueError as err:
            raise CatalogParseError(str(err), self.line) from err

    def items(self, key: str) -> tuple[tuple, ...]:
        return tuple(self._table.get(key, ()))

    def child(self, key: str) -> tuple:
        found = self._table.get(key)
        if found is None:
            raise CatalogParseError(f"missing key '{key}'", self.line)
        if len(found) > 1:
            raise CatalogParseError(f"duplicate key '{key}'", found[1][1])
        return found[0]

    def value(self, key: str, kind: type, default=_REQUIRED):
        """``entry_value(self.child(key), kind)`` in one step, or ``default``,
        if given, when the key is absent."""
        found = self._table.get(key)
        if found is None:
            if default is not _REQUIRED:
                return default
        elif len(found) == 1 and found[0][2].__class__ is kind:
            return found[0][2]
        return entry_value(self.child(key), kind)  # raises

    def list_of(self, key: str, kind: type) -> list:
        """``value(key, list)``, each entry of exactly type ``kind``."""
        values = self.value(key, list)
        for v in values:
            if v.__class__ is not kind:
                raise CatalogParseError(
                    f"'{key}' entries must be {_PLURAL[kind]}, got {v!r}",
                    self.child(key)[1],
                )
        return list(values)


# One match decides every line: the one group that matched names its
# form, none does for a blank or comment-only line, and no match is a
# malformed line.  A '#' outside double quotes starts a comment; a '"'
# runs to the next one or, unterminated, to the end of the line.  It is
# compiled, and re imported, on first use: the bundled catalog reads no text.
@cache
def _line_re():
    import re

    return re.compile(r"""\s* (?:
        (\})                                    # 1: '}' closes a block
      | ([A-Za-z_][\w-]*) \s* (?:               # 2: a key, then
            (\{)                                # 3: '{' opens a block
          | : \s* (?:
                "([^"]*)"                       # 4: a string
              | (-?[0-9]+)                      # 5: an integer
              | ((?=[^\s\#]) [^"\#]* (?: "[^"]*" [^"\#]* )* (?: "[^"]* )?)
            ))                                  # 6: any other value, and the
                                                #    spaces after it
      |                                         # a blank line
    ) \s* (?: \#.* | )""", re.VERBOSE)


def is_int(text: str) -> bool:
    """Whether text is an integer as spinr reads one (catalog values, --r
    and --m, the k of SO(k)): an optional '-' and ASCII digits.  Python's
    int would also take '٣', '0_3' and ' 3'."""
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def parse_int(text: str) -> int:
    """int(text) of a text that is_int accepts; one longer than Python's
    int-string limit raises a ValueError that says so."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"integer of {len(text.lstrip('-'))} digits is longer than the "
            f"{sys.get_int_max_str_digits()} digits Python converts"
        ) from None


def _int(text: str, line: int, path: str) -> int:
    """parse_int(text), its error reported at its line."""
    try:
        return parse_int(text)
    except ValueError as err:
        raise CatalogParseError(str(err), line, path) from None


def _parse_scalar(text: str, line: int, path: str) -> Scalar:
    """Parse one stripped scalar."""
    if not text:
        raise CatalogParseError("empty value", line, path)
    if text[0] == '"':
        if text[-1] != '"' or len(text) < 2:
            raise CatalogParseError(f"unterminated string {text!r}", line, path)
        return text[1:-1]
    if is_int(text):
        return _int(text, line, path)
    if text == "true":
        return True
    if text == "false":
        return False
    if '"' in text or "[" in text or "]" in text:
        raise CatalogParseError(f"malformed value {text!r}", line, path)
    return text


def _split_list_items(body: str, line: int, path: str) -> list[str]:
    """Split a list body at the commas outside double quotes."""
    chunks = body.split('"')  # odd-numbered chunks are quoted
    if len(chunks) % 2 == 0:
        raise CatalogParseError("unterminated string in list", line, path)
    items = []
    pieces = []  # the pieces of the item being read, joined once at its end
    for i, chunk in enumerate(chunks):
        if i % 2:
            pieces.append(f'"{chunk}"')
            continue
        first, *rest = chunk.split(",")
        pieces.append(first)
        for piece in rest:
            items.append("".join(pieces).strip())
            pieces = [piece]
    items.append("".join(pieces).strip())
    if items == [""]:
        return []
    return items


def _parse_value(text: str, line: int, path: str) -> Scalar | list[Scalar]:
    """Parse one stripped value: a scalar or a one-line list."""
    if text[0] == "[":
        if text[-1] != "]":
            raise CatalogParseError(f"unterminated list {text!r}", line, path)
        return [
            _parse_scalar(item, line, path)
            for item in _split_list_items(text[1:-1], line, path)
        ]
    return _parse_scalar(text, line, path)


def parse(text: str, path: str = "<catalog>") -> list[tuple]:
    """Parse catalog text into its top-level entries."""
    top = children = []
    stack = []  # the entry lists of the enclosing blocks, innermost last
    matched = {}  # line text -> its match's groups: most lines repeat, such as "}"
    parsed = {}  # value text -> its value: most repeat, such as "[]" or "true"
    fullmatch = _line_re().fullmatch
    for lineno, raw in enumerate(text.splitlines(), start=1):
        groups = matched.get(raw)
        if groups is None:
            m = fullmatch(raw)
            if m is None:
                raise CatalogParseError(f"cannot parse line {raw.strip()!r}", lineno, path)
            groups = matched[raw] = m.groups()
        close, key, opens, string, integer, other = groups
        # the value forms first: they are most of the lines
        if string is not None:
            children.append((key, lineno, string, None))
        elif integer is not None:
            children.append((key, lineno, _int(integer, lineno, path), None))
        elif other is not None:
            other = other.rstrip()
            value = parsed.get(other)
            if value is None:
                value = parsed[other] = _parse_value(other, lineno, path)
            if value.__class__ is list:
                value = value[:]
            children.append((key, lineno, value, None))
        elif opens is not None:
            block = []
            children.append((key, lineno, None, block))
            stack.append(children)
            children = block
        elif close is not None:
            if not stack:
                raise CatalogParseError("unmatched '}'", lineno, path)
            children = stack.pop()
    if stack:
        # an open block is the last entry of the list that holds it
        raise CatalogParseError("unclosed block", stack[-1][-1][1], path)
    return top
