"""The instance parser's outcomes on a seeded corpus of mutated files.

Each case is a small generated instance file, PST or PNWST, with one kind
of mutation applied (``KINDS``): whitespace, tab and comment variants of
its records, equal weight rows spelled differently, dropped, extra or
garbled tokens, records moved out of order, shared weight rows that break
monotonicity, line-ending variants, and a few of these combined.  A case's
outcome is the sha256 of ``write_instance`` of what it parses to, or its
``ParseError`` message with the line.  ``parse_outcomes.json`` holds the
outcomes taken before the parser's load pass was rewritten, so a change
to the parser that moves any of them shows here.  Only the 31 cases whose
comments hold a form feed, U+2028 or another break ``str.splitlines``
ends a line at hold later outcomes: cases 32, 33, 36, 38, 42, 44, 46,
52-55, 57, 59, 61, 63, 260, 267, 270-274, 278-281, 285-287, 297 and 298.
Such a comment now stays a comment, and each of them loads exactly as the
same file did with those characters replaced by a letter.

Regenerate the file only for a change meant to alter parse results:

    PYTHONPATH=src python3 tests/test_parse_frozen.py > tests/parse_outcomes.json
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from priority_steiner import cli, gen_random_pnwst, gen_random_pst
from priority_steiner.fileio import ParseError, parse_instance, write_instance

FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "parse_outcomes.json")
SEED = 20240519
PER_KIND = 32
KINDS = (
    "spacing",
    "comment",
    "respell",
    "drop",
    "extra",
    "garble",
    "reorder",
    "shared",
    "endings",
    "combo",
)

_SPACES = (" ", "  ", "\t", " \t", "\t\t ")
# Characters str.splitlines() also ends a line at; in a comment they are
# comment text.
_ODD = ("\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_EXTRA = ("7", "0", "-1", "x", "nan", "inf", "1e400", "2.5", "edge", "k", "3 4")
_GARBLE = ("1.2.3", "abc", "--", "0x10", "1e", "\u0661", "\u00bd", "9" * 25, "-0", "")


def _bases() -> list[str]:
    texts = [write_instance(gen_random_pst(9, 0.4, 3, 0.4, s)) for s in range(3)]
    texts += [write_instance(gen_random_pnwst(9, 0.4, 3, 0.4, s)) for s in range(2)]
    return [t.rstrip("\n") for t in texts]


def _spell(tok: str, rng: random.Random) -> str:
    """An equal number written another way."""
    try:
        value = int(tok)
    except ValueError:
        return tok
    return rng.choice(
        (f"{value}.0", f"{value}e0", f"0{value}", f"+{value}", f"{value}.",
         f"{value}.000", f"{value * 10}e-1", tok)
    )


def _respace(line: str, rng: random.Random) -> str:
    toks = line.split()
    lead = rng.choice(("", " ", "\t"))
    tail = rng.choice(("", " ", "\t ", "  "))
    return lead + "".join(t + rng.choice(_SPACES) for t in toks[:-1]) + toks[-1] + tail


def _records(lines: list[str], head: str = "") -> list[int]:
    return [i for i, line in enumerate(lines) if line.split() and
            (not head or line.split()[0] == head)]


def _mutate(kind: str, lines: list[str], rng: random.Random) -> tuple[list[str], str]:
    """Apply one mutation; return the lines and the line separator."""
    lines = list(lines)
    body = _records(lines)[1:]  # every record but the header
    sep = "\n"
    if kind == "spacing":
        for i in body:
            if rng.random() < 0.5:
                lines[i] = _respace(lines[i], rng)
    elif kind == "comment":
        for i in rng.sample(body, 3):
            note = rng.choice((" # note", "#", "\t# edge 1 2", "# 1 2 3", "  #  #"))
            if rng.random() < 0.25:
                note += rng.choice(_ODD) + rng.choice(("b", " continued", "edge 1 2"))
            lines[i] += note
        where = rng.randrange(len(lines) + 1)
        lines.insert(where, rng.choice(("# full line", "#", "")))
    elif kind == "respell":
        for i in _records(lines, "edge") + _records(lines, "node"):
            toks = lines[i].split()
            lead = 2 if toks[0] == "node" else 3
            toks[lead:] = [_spell(t, rng) for t in toks[lead:]]
            lines[i] = " ".join(toks)
    elif kind in ("drop", "extra", "garble"):
        i = rng.choice(body)
        toks = lines[i].split()
        j = rng.randrange(len(toks) + (kind == "extra"))
        if kind == "drop":
            del toks[j]
        elif kind == "extra":
            toks.insert(j, rng.choice(_EXTRA))
        else:
            toks[j] = rng.choice(_GARBLE)
        lines[i] = " ".join(toks)
    elif kind == "reorder":
        i = rng.choice(body)
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    elif kind == "shared":
        edges = _records(lines, "edge")
        if len(lines[edges[0]].split()) > 3:  # PST: rows to share
            row = rng.choice(("5 3 4", "1 2 3", "0 0 0", "2 2 1", "1 nan 3", "-1 0 1"))
            for i in rng.sample(edges, 4):
                u, v = lines[i].split()[1:3]
                spelled = " ".join(_spell(t, rng) for t in row.split())
                lines[i] = f"edge {u} {v} " + (spelled if rng.random() < 0.5 else row)
        else:  # PNWST: a row shared by several vertices
            row = rng.choice(("4 2 3", "1 2 3", "0 1 0"))
            for v in rng.sample(range(2, 10), 3):
                lines.append(f"node {v} {row}")
    elif kind == "endings":
        sep = rng.choice(("\r\n", "\r", "\n\n", "\r\n\r\n"))
        if rng.random() < 0.5:
            i = rng.choice(body)
            lines[i] += " #" + rng.choice(_ODD) + "x"
    else:  # combo
        for sub in rng.sample(KINDS[:-2], 2):
            lines, _ = _mutate(sub, lines, rng)
    return lines, sep


def corpus() -> list[tuple[str, str]]:
    """(kind, text) of every case, in a fixed order from ``SEED``."""
    rng = random.Random(SEED)
    bases = [b.split("\n") for b in _bases()]
    out = []
    for kind in KINDS:
        for _ in range(PER_KIND):
            lines, sep = _mutate(kind, rng.choice(bases), rng)
            out.append((kind, sep.join(lines) + sep))
    return out


def outcome(text: str) -> str:
    try:
        inst = parse_instance(text)
    except ParseError as exc:
        return f"error: {exc}"
    return hashlib.sha256(write_instance(inst).encode()).hexdigest()


def test_corpus_outcomes_are_frozen():
    with open(FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)
    cases = corpus()
    assert len(cases) == len(frozen)
    moved = [
        (i, kind, want, got)
        for i, ((kind, text), want) in enumerate(zip(cases, frozen))
        if (got := outcome(text)) != want
    ]
    assert moved == []


def test_corpus_holds_loads_and_errors_of_every_kind():
    outcomes = [(kind, outcome(text).startswith("error:")) for kind, text in corpus()]
    for kind in KINDS:
        if kind in ("drop", "garble", "shared"):
            assert (kind, True) in outcomes, kind
        if kind in ("spacing", "comment", "respell", "endings"):
            assert (kind, False) in outcomes, kind


def test_solve_exits_with_a_code_on_every_case(tmp_path, capsys):
    codes = set()
    for i, (_, text) in enumerate(corpus()):
        path = tmp_path / f"case{i}.pst"
        path.write_bytes(text.encode("utf-8"))
        codes.add(cli.main(["solve", str(path), "--solver", "alg1"]))
    capsys.readouterr()
    assert codes <= {0, 1, 2}
    assert {0, 2} <= codes


if __name__ == "__main__":
    json.dump([outcome(text) for _, text in corpus()], sys.stdout, indent=0)
    sys.stdout.write("\n")
