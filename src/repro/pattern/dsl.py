"""A compact text DSL for pattern queries.

The grammar has three statement kinds, separated by ``;`` or newlines:

* node declaration: ``name: label`` — e.g. ``m: movie``
* edge declaration: ``a -> b`` (or a chain ``a -> b -> c``)
* predicate: ``name.value OP constant`` — e.g. ``y.value >= 2011``

Example — the paper's Q0 (Fig. 1):

.. code-block:: text

    aw: award;  y: year;  m: movie
    a: actor;  s: actress;  c: country
    m -> aw;  m -> y;  m -> a;  m -> s
    a -> c;  s -> c
    y.value >= 2011;  y.value <= 2013

Comments start with ``#`` and run to end of line. A constant is a
quoted string (``"..."`` or ``'...'``; a backslash escapes the next
character, and ``\\n``, ``\\t``, ``\\r``, ``\\uXXXX`` and
``\\UXXXXXXXX`` name characters), ``True`` / ``False``, an int or a
float; ``;`` and ``#`` inside a quoted string are part of it.

:func:`parse_pattern` keeps up to :data:`PARSE_MEMO_ENTRIES` texts it
parsed, each with its canonical fingerprint
(:mod:`repro.pattern.canonical`) computed once, in one locked segmented
LRU (:class:`~repro.util.lru.PlanCache`) shared by every caller: the
query service, the CLI and in-process code. A repeated text costs one
lookup and an O(1) copy-on-write
:meth:`~repro.pattern.pattern.Pattern.copy` that carries the
fingerprint, so neither the parse nor the canonicalisation is paid
again. Each call still returns its own :class:`Pattern`.
"""

from __future__ import annotations

import re

from repro.errors import DslError
from repro.pattern.canonical import pattern_fingerprint
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import Atom, Predicate
from repro.util.lru import PlanCache

#: Distinct texts the parse memo keeps (texts never hit go out first).
PARSE_MEMO_ENTRIES = 512
#: Longest text the memo keeps, in characters; a longer one is parsed
#: on every call. Real queries are far shorter (the benchmark pool's
#: longest is 347), so this only keeps odd inputs from pinning memory.
PARSE_MEMO_TEXT_CHARS = 4096
#: Parsed patterns by text, fingerprint computed. The stored patterns
#: are templates that are never handed out or mutated; errors are not
#: kept, so bad text raises on every call.
_memo = PlanCache(maxsize=PARSE_MEMO_ENTRIES)

#: The three statement kinds; no statement can match two of them.
_STATEMENT_RE = re.compile(
    r"^(?:(?P<name>\w+)\s*:\s*(?P<label>[\w./-]+)"
    r"|(?P<subject>\w+)\.value\s*(?P<op>=|!=|<=|>=|<|>)\s*(?P<constant>.+)"
    r"|(?P<edge>\w+(?:\s*->\s*\w+)+))$")
_ARROW_RE = re.compile(r"\s*->\s*")
#: One statement of a line with quotes: unquoted text and quoted strings
#: (an unterminated one runs to the end of the line).
_CHUNK_RE = re.compile(
    r"""(?:[^;#"']+|"(?:[^"\\]|\\.?)*"?|'(?:[^'\\]|\\.?)*'?)*""")
_STRING_RE = re.compile(r""""(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*'""", re.S)
_ESCAPE_RE = re.compile(r"\\(u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|.)", re.S)
_UNESCAPED = {"n": "\n", "t": "\t", "r": "\r"}
_ESCAPED = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def parse_pattern(text: str, name: str = "") -> Pattern:
    """Parse DSL ``text`` into a :class:`Pattern` named ``name``: a new
    pattern on every call, free to mutate, served from the parse memo
    when ``text`` was parsed recently.

    Raises :class:`~repro.errors.DslError` with a line reference on any
    syntax problem.
    """
    template = _memo.get(text)
    if template is None:
        template = _parse(text)
        pattern_fingerprint(template)
        if len(text) <= PARSE_MEMO_TEXT_CHARS:
            _memo.put(text, template)
    pattern = template.copy()
    pattern.name = name
    return pattern


def _parse(text: str) -> Pattern:
    pattern = Pattern()
    ids: dict[str, int] = {}
    pending_predicates: list[tuple[str, Atom, int]] = []
    statements = enumerate(text.splitlines(), start=1)
    if ";" in text or "#" in text:
        statements = [(lineno, statement) for lineno, line in statements
                      for statement in _split_line(line)]
    for lineno, statement in statements:
        statement = statement.strip()
        if not statement:
            continue
        match = _STATEMENT_RE.match(statement)
        if match is None:
            raise DslError(
                f"line {lineno}: cannot parse statement {statement!r}")
        node_name, label, subject, op, constant, _ = match.groups()
        if label is not None:
            if node_name in ids:
                raise DslError(
                    f"line {lineno}: node {node_name!r} declared twice")
            ids[node_name] = pattern.add_node(label)
        elif op is not None:
            atom = Atom(op, _parse_constant(constant, lineno))
            pending_predicates.append((subject, atom, lineno))
        else:
            chain = _ARROW_RE.split(statement)
            for source, target in zip(chain, chain[1:]):
                for endpoint in (source, target):
                    if endpoint not in ids:
                        raise DslError(
                            f"line {lineno}: edge references undeclared "
                            f"node {endpoint!r}")
                pattern.add_edge(ids[source], ids[target])

    atoms: dict[int, list[Atom]] = {}
    for node_name, atom, lineno in pending_predicates:
        if node_name not in ids:
            raise DslError(
                f"line {lineno}: predicate references undeclared node {node_name!r}")
        atoms.setdefault(ids[node_name], []).append(atom)
    for node, node_atoms in atoms.items():
        pattern.set_predicate(node, Predicate(tuple(node_atoms)))
    return pattern


def _split_line(line: str) -> list[str]:
    """The statements of one line: split at ``;`` up to a ``#`` comment,
    where neither counts inside a quoted string."""
    if '"' not in line and "'" not in line:
        return line.split("#", 1)[0].split(";")
    parts = []
    start = 0
    while True:
        end = _CHUNK_RE.match(line, start).end()
        parts.append(line[start:end])
        if end == len(line) or line[end] == "#":
            return parts
        start = end + 1


def _unescape(match: re.Match) -> str:
    code = match.group(1)
    return chr(int(code[1:], 16)) if len(code) > 1 \
        else _UNESCAPED.get(code, code)


def _quote(text: str) -> str:
    """``text`` as a DSL string constant: plain printable text is only
    wrapped in quotes, anything else is escaped."""
    if text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(
        _ESCAPED.get(ch) or (ch if ch.isprintable() else
                             f"\\u{ord(ch):04x}" if ord(ch) < 0x10000
                             else f"\\U{ord(ch):08x}")
        for ch in text) + '"'


def _parse_constant(raw: str, lineno: int):
    raw = raw.strip()
    if not raw:
        raise DslError(f"line {lineno}: empty predicate constant")
    if raw[0] in "\"'":
        body = raw[1:-1]
        if len(raw) > 1 and raw[-1] == raw[0] and raw[0] not in body \
                and "\\" not in body:
            return body
        if _STRING_RE.fullmatch(raw) is None:
            raise DslError(f"line {lineno}: unterminated string constant {raw!r}")
        return _ESCAPE_RE.sub(_unescape, body)
    if raw in ("True", "False"):
        return raw == "True"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise DslError(f"line {lineno}: cannot parse constant {raw!r}") from None


def format_pattern(pattern: Pattern) -> str:
    """Render a pattern back into DSL text (inverse of
    :func:`parse_pattern`, up to node naming)."""
    names = {node: f"n{node}" for node in sorted(pattern.nodes())}
    lines = [f"{names[node]}: {pattern.label_of(node)}"
             for node in sorted(pattern.nodes())]
    lines.extend(f"{names[source]} -> {names[target]}"
                 for source, target in pattern.edges())
    for node in sorted(pattern.nodes()):
        for atom in pattern.predicate_of(node).atoms:
            constant = atom.constant
            rendered = _quote(constant) if isinstance(constant, str) \
                else repr(constant)
            lines.append(f"{names[node]}.value {atom.op} {rendered}")
    return "\n".join(lines)
