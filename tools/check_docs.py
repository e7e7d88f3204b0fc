#!/usr/bin/env python
"""Keep the reference docs honest about the code they describe.

One table, :data:`CHECKS`, pairs a ``## Section`` of a doc under
``docs/`` with the code surface it documents. Three reusable checks
compare the two in both directions:

* :func:`flag_table` — an argparse flag table (``| `--flag` | ... |``):
  every documented flag exists on the parser, every parser flag is
  documented, and a scalar flag with ``choices`` names each accepted
  value (in backticks) in its row;
* :func:`field_tables` — ``### `Class``` sections, each with a field
  table: every documented class and field exists, every class and
  dataclass field is documented, and the heading's tail (an event's
  ``— `wire-name```) matches the code;
* :func:`registry_overview` / :func:`registry_catalog` — the strategy
  registry's family overview table (display name, vectorizable flag,
  synthesis weight) and per-kind catalog sections (display name plus
  the spec-argument table: name, order, kind, required, CLI flag).

Exits non-zero with one line per problem, naming the doc, the section
and the item. Run from the repository root: ``python tools/check_docs.py``.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import registry  # noqa: E402
from repro.fleet import report as fleet_report  # noqa: E402
from repro.fleet.cli import build_parser as fleet_parser  # noqa: E402
from repro.obs import EVENT_TYPES  # noqa: E402
from repro.traces.calibrate_cli import build_parser as calibrate_parser  # noqa: E402
from repro.traces.ingest import build_parser as ingest_parser  # noqa: E402

Check = Callable[[List[str]], List[str]]
Rows = Dict[str, List[str]]

#: ``## Section`` headings split a doc.
SECTION = re.compile(r"^##\s+(?P<title>.+?)\s*$")
#: ``### `name``` or ``### `name` — tail`` entry headings inside a section.
ENTRY = re.compile(r"^###\s+`(?P<name>[\w-]+)`(?:\s+—\s+(?P<tail>.+?))?\s*$")
#: A table cell that is a single code span: the row's key.
KEY_CELL = re.compile(r"`([^`]+)`")


# ----------------------------------------------------------------- parsing
def sections(text: str) -> Dict[str, List[str]]:
    """``{## title: the section's lines}``."""
    out: Dict[str, List[str]] = {}
    lines: Optional[List[str]] = None
    for line in text.splitlines():
        s = SECTION.match(line)
        if s:
            lines = out[s.group("title")] = []
        elif lines is not None:
            lines.append(line)
    return out


def table(lines: Sequence[str]) -> Rows:
    """``{key: other cells}`` for table rows whose first cell is `` `key` ``
    (header and separator rows have no code span and are skipped)."""
    rows: Rows = {}
    for line in lines:
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        key = KEY_CELL.fullmatch(cells[0])
        if key:
            rows[key.group(1)] = cells[1:]
    return rows


def entries(lines: Sequence[str]) -> Dict[str, Tuple[Optional[str], Rows]]:
    """``{name: (heading tail, table rows)}`` per ``### `name``` entry."""
    bodies: Dict[str, Tuple[Optional[str], List[str]]] = {}
    body: Optional[List[str]] = None
    for line in lines:
        e = ENTRY.match(line)
        if e:
            body = []
            bodies[e.group("name")] = (e.group("tail"), body)
        elif body is not None:
            body.append(line)
    return {name: (tail, table(b)) for name, (tail, b) in bodies.items()}


def diff_names(documented, real, what: str) -> List[str]:
    """Both-direction membership diff of two name collections."""
    return [f"documents unknown {what} `{n}`" for n in documented if n not in real] + [
        f"{what} `{n}` is not documented" for n in real if n not in documented
    ]


def diff_entries(documented, real: Mapping[str, Optional[str]], what: str) -> List[str]:
    """:func:`diff_names` plus heading-tail mismatches, for :func:`entries`."""
    problems = diff_names(documented, real, what)
    for name, (tail, _) in documented.items():
        if name in real and tail != real[name]:
            problems.append(f"{what} `{name}`: heading says {tail!r}, code says {real[name]!r}")
    return problems


# ------------------------------------------------------------------ checks
def flag_table(parser_factory: Callable) -> Check:
    """Check a section's flag table against ``parser_factory()``."""

    def check(lines: List[str]) -> List[str]:
        documented = table(lines)
        if not documented:
            return ["no flag table"]
        actions = {
            opt: action
            for action in parser_factory()._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        problems = diff_names(documented, actions, "flag")
        for flag, action in actions.items():
            # A scalar choices-flag's row must name every accepted value;
            # multi-valued filters (--region, --size) describe their
            # domain in prose instead.
            if flag in documented and action.choices and action.nargs is None:
                named = set(KEY_CELL.findall(" | ".join(documented[flag])))
                missing = [str(c) for c in action.choices if str(c) not in named]
                if missing:
                    problems.append(
                        f"flag `{flag}`: choice(s) {', '.join(missing)} not named in its row"
                    )
        return problems

    return check


def field_tables(classes: Callable[[], Mapping[str, Tuple[type, Optional[str]]]]) -> Check:
    """Check ``### `Class``` field tables against ``{name: (dataclass,
    heading tail)}``."""

    def check(lines: List[str]) -> List[str]:
        documented = entries(lines)
        real = classes()
        problems = diff_entries(documented, {n: tail for n, (_, tail) in real.items()}, "class")
        for name, (_, rows) in documented.items():
            if name in real:
                fields = [f.name for f in dataclasses.fields(real[name][0])]
                problems += [f"{name}: {p}" for p in diff_names(rows, fields, "field")]
        return problems

    return check


def _infos() -> Dict[str, registry.StrategyInfo]:
    return {info.kind: info for info in registry.strategy_infos()}


def registry_overview(lines: List[str]) -> List[str]:
    """The ``| `kind` | display name | yes/no | weight |`` overview table."""
    documented, infos = table(lines), _infos()
    problems = diff_names(documented, infos, "kind")
    for kind, cells in documented.items():
        info = infos.get(kind)
        if info is None:
            continue
        if len(cells) < 3:
            problems.append(f"kind `{kind}`: row needs 4 columns")
            continue
        display, vec, weight = cells[:3]
        if display != info.display_name:
            problems.append(f"kind `{kind}`: display name {display!r} != {info.display_name!r}")
        if vec != ("yes" if info.vectorizable else "no"):
            problems.append(
                f"kind `{kind}`: vectorizable {vec!r}, registry says {info.vectorizable}"
            )
        try:
            same_weight = abs(float(weight) - info.synthesis_weight) <= 1e-9
        except ValueError:
            same_weight = False
        if not same_weight:
            problems.append(f"kind `{kind}`: weight {weight} != {info.synthesis_weight}")
    return problems


def registry_catalog(lines: List[str]) -> List[str]:
    """``### `kind` — Display Name`` sections with spec-argument tables
    (``| `name` | kind | yes/no | default | CLI flag |``), in schema order."""
    documented, infos = entries(lines), _infos()
    problems = diff_entries(documented, {k: i.display_name for k, i in infos.items()}, "kind")
    for kind, (_, rows) in documented.items():
        if kind not in infos:
            continue
        schema = infos[kind].arg_schema
        order = [a.name for a in schema]
        if list(rows) != order:
            problems.append(f"{kind}: documented args {list(rows)} != schema order {order}")
        for arg in schema:
            if arg.name not in rows:
                continue  # already reported by the order check
            if len(rows[arg.name]) < 4:
                problems.append(f"{kind}.{arg.name}: row needs 5 columns")
                continue
            doc_kind, required, _, cli = rows[arg.name][:4]
            real = (
                arg.kind,
                "yes" if arg.required else "no",
                "—" if arg.cli is None else f"`--{arg.cli.replace('_', '-')}`",
            )
            if (doc_kind, required, cli) != real:
                problems.append(
                    f"{kind}.{arg.name}: documented (kind, required, CLI flag) "
                    f"{(doc_kind, required, cli)} != {real}"
                )
    return problems


#: ``(doc under docs/, ## section, check)`` — every row runs.
CHECKS: Tuple[Tuple[str, str, Check], ...] = (
    ("TRACING.md", "Event reference", field_tables(
        lambda: {cls.__name__: (cls, f"`{wire}`") for wire, cls in EVENT_TYPES.items()}
    )),
    ("FLEET.md", "CLI reference", flag_table(fleet_parser)),
    ("FLEET.md", "Metrics glossary", field_tables(
        lambda: {name: (getattr(fleet_report, name), None) for name in fleet_report.__all__}
    )),
    ("STRATEGIES.md", "Family overview", registry_overview),
    ("STRATEGIES.md", "Strategy catalog", registry_catalog),
    ("DATA.md", "Ingest CLI reference", flag_table(ingest_parser)),
    ("DATA.md", "repro-calibrate reference", flag_table(calibrate_parser)),
)


def read_doc(doc: str) -> str:
    """A doc's text; a missing doc reads as empty, so its sections report
    as missing."""
    path = REPO / "docs" / doc
    return path.read_text(encoding="utf-8") if path.exists() else ""


def problems(read: Callable[[str], str] = read_doc) -> List[str]:
    """Every problem across :data:`CHECKS`, as ``DOC § section: detail``;
    ``read(doc)`` returns a doc's text."""
    out: List[str] = []
    for doc, title, check in CHECKS:
        body = sections(read(doc)).get(title)
        if body is None:
            out.append(f"{doc}: section '## {title}' is missing")
            continue
        out += [f"{doc} § {title}: {p}" for p in check(body)]
    return out


def main() -> int:
    found = problems()
    if found:
        print(f"docs are out of sync with the code ({len(found)} problem(s)):")
        for p in found:
            print(f"  - {p}")
        return 1
    docs = sorted({doc for doc, _, _ in CHECKS})
    print(f"docs OK: {len(CHECKS)} sections of {', '.join(docs)} match the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
