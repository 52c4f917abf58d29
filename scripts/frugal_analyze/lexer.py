"""Comment/string-aware C++ line lexer.

Splits every source line into its *code* part (string/char literal
contents blanked, comments removed) and its *comment* part (the text of
any comment touching that line). All downstream pattern matching runs on
the code part, so `//` inside a string literal or `std::atomic` inside a
comment can never confuse a check; exemption tags (`relaxed:`,
`tsa-exempt:`, ...) are looked up in the comment part only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Set

# The project's exemption-tag vocabulary (DESIGN.md §11).
KNOWN_TAGS = ("relaxed:", "modelcheck-exempt:", "tsa-exempt:", "alloc-ok:",
              "retry-exempt:", "spin-block-ok:")


@dataclass
class SourceFile:
    """Lexed view of one file. Lines are 1-indexed everywhere."""

    path: str
    lines: List[str] = field(default_factory=list)      # raw text
    code: List[str] = field(default_factory=list)       # comments stripped
    comments: List[str] = field(default_factory=list)   # comment text only
    preprocessor: Set[int] = field(default_factory=set)  # '#...' lines
    tag_lines: Dict[str, Set[int]] = field(default_factory=dict)

    def code_at(self, line: int) -> str:
        return self.code[line - 1] if 1 <= line <= len(self.code) else ""

    def has_tag_near(self, line: int, tag: str, window: int = 1) -> bool:
        """True when `tag` appears in a comment on `line` or up to
        `window` lines above it."""
        hits = self.tag_lines.get(tag)
        if not hits:
            return False
        return any(ln in hits for ln in range(max(1, line - window),
                                              line + 1))


_CONTINUATION = re.compile(r"\\\s*$")
# The tail of a pp-number ending right before a quote: that quote is a
# C++14 digit separator (`2'000'000`), not the start of a char literal.
# `u8'x'` / `L'x'` prefixes start with a letter, so they never match.
_NUMBER_TAIL = re.compile(r"(?<![\w.'])\.?\d[\w.']*$")


def lex(path: str, text: str) -> SourceFile:
    sf = SourceFile(path=path)
    sf.lines = text.splitlines()

    code_lines: List[List[str]] = [[] for _ in sf.lines]
    comment_lines: List[List[str]] = [[] for _ in sf.lines]

    state = "code"  # code | line_comment | block_comment | string | char
    raw_delim = None  # raw-string delimiter incl. closing paren
    i = 0
    line = 0
    col = 0
    n = len(text)

    def emit_code(ch: str) -> None:
        code_lines[line].append(ch)

    def emit_comment(ch: str) -> None:
        comment_lines[line].append(ch)

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            if state == "line_comment":
                state = "code"
            line += 1
            col = 0
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                # Raw string literal R"delim( ... )delim"
                if text[max(0, i - 1):i] == "R" and (
                        i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "string"
                        emit_code('"')
                        i += 1 + len(m.group(1)) + 1
                        continue
                raw_delim = None
                state = "string"
                emit_code('"')
                i += 1
                continue
            if ch == "'":
                if not _NUMBER_TAIL.search(text, max(0, i - 64), i):
                    state = "char"
                emit_code("'")
                i += 1
                continue
            emit_code(ch)
            i += 1
            continue
        if state == "line_comment":
            emit_comment(ch)
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            emit_comment(ch)
            i += 1
            continue
        if state == "string":
            if raw_delim is not None:
                if text.startswith(raw_delim, i):
                    emit_code('"')
                    i += len(raw_delim)
                    state = "code"
                    raw_delim = None
                    continue
                i += 1
                continue
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                emit_code('"')
                state = "code"
                i += 1
                continue
            i += 1
            continue
        if state == "char":
            if ch == "\\":
                i += 2
                continue
            if ch == "'":
                emit_code("'")
                state = "code"
                i += 1
                continue
            i += 1
            continue
        raise AssertionError(state)

    sf.code = ["".join(chars) for chars in code_lines]
    sf.comments = ["".join(chars) for chars in comment_lines]

    # Preprocessor lines (and their backslash continuations) are opaque
    # to the statement parser.
    cont = False
    for idx, raw in enumerate(sf.lines):
        if cont or sf.code[idx].lstrip().startswith("#"):
            sf.preprocessor.add(idx + 1)
            cont = bool(_CONTINUATION.search(sf.code[idx]))
        else:
            cont = False

    for tag in KNOWN_TAGS:
        hits = {idx + 1 for idx, c in enumerate(sf.comments) if tag in c}
        if hits:
            sf.tag_lines[tag] = hits
    return sf
