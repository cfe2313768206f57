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
    """One ``key: value`` entry or one ``key { ... }`` block."""

    __slots__ = ("key", "line", "value", "children")

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

    # -- convenience accessors used by the typed loaders --------------

    def items(self, key: str) -> list["Node"]:
        return [c for c in self.children or [] if c.key == key]

    def child(self, key: str, required: bool = True) -> "Node | None":
        found = self.items(key)
        if len(found) > 1:
            raise CatalogParseError(f"duplicate key '{key}'", found[1].line)
        if not found:
            if required:
                raise CatalogParseError(f"missing key '{key}'", self.line)
            return None
        return found[0]

    def get(self, key: str, default=None):
        node = self.child(key, required=False)
        return default if node is None else node.value

    def require(self, key: str):
        node = self.child(key)
        if node.value is None:
            raise CatalogParseError(f"'{key}' must carry a value", node.line)
        return node.value

    def require_str(self, key: str) -> str:
        v = self.require(key)
        if not isinstance(v, str):
            raise CatalogParseError(
                f"'{key}' must be a string, got {v!r}", self.child(key).line
            )
        return v

    def require_int(self, key: str) -> int:
        v = self.require(key)
        if isinstance(v, bool) or not isinstance(v, int):
            raise CatalogParseError(
                f"'{key}' must be an integer, got {v!r}", self.child(key).line
            )
        return v

    def require_bool(self, key: str) -> bool:
        v = self.require(key)
        if not isinstance(v, bool):
            raise CatalogParseError(
                f"'{key}' must be true or false, got {v!r}", self.child(key).line
            )
        return v

    def require_list(self, key: str) -> list[Scalar]:
        node = self.child(key)
        if not isinstance(node.value, list):
            raise CatalogParseError(
                f"'{key}' must be a list, got {node.value!r}", node.line
            )
        return node.value

    def str_list(self, key: str) -> list[str]:
        vals = self.require_list(key)
        node = self.child(key)
        for v in vals:
            if not isinstance(v, str):
                raise CatalogParseError(
                    f"'{key}' entries must be strings, got {v!r}", node.line
                )
        return list(vals)


# A line is '}', 'key {' or 'key: value'; after comment stripping it is
# matched against this one pattern, which leaves the value stripped.
_LINE_RE = re.compile(r"^([A-Za-z_][\w-]*)\s*(?:(\{)|:\s*(.+))$")
_INT_RE = re.compile(r"^-?\d+$")
# The longest prefix holding no '#' outside double quotes.  Every '"'
# toggles quoting, and an unterminated quote runs to the end of the line.
_UNCOMMENTED_RE = re.compile(r'(?:[^"#]+|"[^"]*"?)*')


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
    match_line = _LINE_RE.match
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            line = raw[: _UNCOMMENTED_RE.match(raw).end()].strip()
        else:
            line = raw.strip()
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise CatalogParseError("unmatched '}'", lineno, path)
            stack.pop()
            children = stack[-1].children
            continue
        m = match_line(line)
        if m is None:
            raise CatalogParseError(
                f"cannot parse line {raw.strip()!r}", lineno, path
            )
        key, opened, value = m.groups()
        if opened:
            node = Node(key, lineno, None, [])
            children.append(node)
            stack.append(node)
            children = node.children
        else:
            children.append(Node(key, lineno, _parse_value(value, lineno, path)))
    if len(stack) > 1:
        raise CatalogParseError("unclosed block", stack[-1].line, path)
    return root.children
