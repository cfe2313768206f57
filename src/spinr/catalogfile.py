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
blocks).  Every node remembers its line number so that validation
errors can point at the offending line.
"""

from __future__ import annotations

import re


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


class Node:
    """One ``key: value`` entry or one ``key { ... }`` block.

    The accessors read a block's children through a key table built on
    first use, so a block is read once however many keys are asked for;
    children added after the first lookup are not seen by it.
    """

    __slots__ = ("key", "line", "value", "children", "_table")

    def __init__(
        self,
        key: str,
        line: int,
        value: Scalar | list[Scalar] | None = None,
        children: list[Node] | None = None,
    ):
        self.key = key
        self.line = line
        self.value = value
        self.children = children
        self._table = None

    def __eq__(self, other):
        if other.__class__ is not Node:
            return NotImplemented
        return (self.key, self.line, self.value, self.children) == (
            other.key, other.line, other.value, other.children
        )

    __hash__ = None  # mutable, like the lists it holds

    def __repr__(self):
        return (
            f"Node(key={self.key!r}, line={self.line!r}, "
            f"value={self.value!r}, children={self.children!r})"
        )

    # -- accessors used by the typed loaders ----------------------------

    def _keys(self) -> dict[str, tuple[Node, ...]]:
        """key -> its children in order, built on first use."""
        table = self._table
        if table is None:
            table = self._table = {}
            for c in self.children or ():
                table[c.key] = table.get(c.key, ()) + (c,)
        return table

    def check_keys(self, known: frozenset[str]):
        """Reject the first child whose key is not in ``known``."""
        if not known.issuperset(self._keys()):
            bad = next(c for c in self.children if c.key not in known)
            raise CatalogParseError(
                f"unknown key '{bad.key}' in '{self.key}' block", bad.line
            )

    def items(self, key: str) -> list[Node]:
        return list(self._keys().get(key, ()))

    def child(self, key: str, required: bool = True) -> Node | None:
        found = self._keys().get(key)
        if found is None:
            if required:
                raise CatalogParseError(f"missing key '{key}'", self.line)
            return None
        if len(found) > 1:
            raise CatalogParseError(f"duplicate key '{key}'", found[1].line)
        return found[0]

    def get(self, key: str, default=None):
        node = self.child(key, required=False)
        return default if node is None else node.value

    def _require(self, key: str, kind: type, what: str):
        """The value at ``key``, of exactly type ``kind``: an int is never a bool."""
        node = self.child(key)
        value = node.value
        if value is None:
            raise CatalogParseError(f"'{key}' must carry a value", node.line)
        if value.__class__ is not kind:
            raise CatalogParseError(f"'{key}' must be {what}, got {value!r}", node.line)
        return value

    def require_str(self, key: str) -> str:
        return self._require(key, str, "a string")

    def require_int(self, key: str) -> int:
        return self._require(key, int, "an integer")

    def require_bool(self, key: str) -> bool:
        return self._require(key, bool, "true or false")

    def require_list(self, key: str) -> list[Scalar]:
        node = self.child(key)
        if node.value.__class__ is not list:
            raise CatalogParseError(
                f"'{key}' must be a list, got {node.value!r}", node.line
            )
        return node.value

    def str_list(self, key: str) -> list[str]:
        return self._list_of(key, str, "strings")

    def int_list(self, key: str) -> list[int]:
        return self._list_of(key, int, "integers")

    def _list_of(self, key: str, kind: type, what: str) -> list:
        values = self.require_list(key)
        for v in values:
            if v.__class__ is not kind:
                raise CatalogParseError(
                    f"'{key}' entries must be {what}, got {v!r}", self.child(key).line
                )
        return list(values)


# One match decides every line: m.lastindex names its form, or is None
# for a blank or comment-only line, and no match is a malformed line.  A
# '#' outside double quotes starts a comment; a '"' runs to the next one
# or, unterminated, to the end of the line.
_LINE_RE = re.compile(
    r"""\s* (?:
        (\})                                    # 1: '}' closes a block
      | ([A-Za-z_][\w-]*) \s* (?:               # 2: a key, then
            (\{)                                # 3: '{' opens a block
          | : \s* (?:
                "([^"]*)"                       # 4: a string
              | (-?\d+)                         # 5: an integer
              | ((?=[^\s\#]) [^"\#]* (?: "[^"]*" [^"\#]* )* (?: "[^"]* )?)
            ))                                  # 6: any other value, and the
                                                #    spaces after it
      |                                         # a blank line
    ) \s* (?: \#.* | )""",
    re.VERBOSE,
)
_INT_RE = re.compile(r"^-?\d+$")


def _parse_scalar(text: str, line: int, path: str) -> Scalar:
    """Parse one stripped scalar."""
    if not text:
        raise CatalogParseError("empty value", line, path)
    if text[0] == '"':
        if text[-1] != '"' or len(text) < 2:
            raise CatalogParseError(f"unterminated string {text!r}", line, path)
        return text[1:-1]
    if _INT_RE.match(text):
        return int(text)
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
    items = chunks[0].split(",")
    for i in range(1, len(chunks), 2):
        after = chunks[i + 1].split(",")
        items[-1] += f'"{chunks[i]}"{after[0]}'
        items += after[1:]
    items = [s.strip() for s in items]
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


def parse(text: str, path: str = "<catalog>") -> list[Node]:
    """Parse catalog text into a list of top-level nodes."""
    root = Node(key="<root>", line=0, children=[])
    stack = [root]
    children = root.children
    match_line = _LINE_RE.fullmatch
    parsed = {}  # value text -> its value: most repeat, such as "[]" or "true"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = match_line(raw)
        if m is None:
            raise CatalogParseError(f"cannot parse line {raw.strip()!r}", lineno, path)
        kind = m.lastindex
        if kind is None:
            continue
        if kind == 1:
            if len(stack) == 1:
                raise CatalogParseError("unmatched '}'", lineno, path)
            stack.pop()
            children = stack[-1].children
        elif kind == 3:
            node = Node(m.group(2), lineno, None, [])
            children.append(node)
            stack.append(node)
            children = node.children
        else:
            if kind == 4:
                value = m.group(4)
            elif kind == 5:
                value = int(m.group(5))
            else:
                other = m.group(6).rstrip()
                value = parsed.get(other)
                if value is None:
                    value = parsed[other] = _parse_value(other, lineno, path)
                if value.__class__ is list:
                    value = value[:]
            children.append(Node(m.group(2), lineno, value))
    if len(stack) > 1:
        raise CatalogParseError("unclosed block", stack[-1].line, path)
    return root.children
