"""A seeded corpus of malformed inputs, run through the command line in
process.  Each input file under tests/data is mutated: an over-long integer,
NaN, Infinity, 1e400, 3000-deep nesting, a boolean, a BOM, CRs, truncation,
byte flips, an empty file, a second 'n' key, a row with one value more or
less, or a count ('n', 'm', a text file's first line) at its cap - 1, the cap
or the cap + 1.  Every case must end in one of two ways: exit 0 or 1 with a
document that parses, or exit 2 or 3 with a single stderr line of at most
MESSAGE_CHARS characters.  No exception may escape main.  A JSON boolean in
place of a number is still read as the entry 1 or 0; whether to refuse it is
left open."""

import json
import random
import re
from pathlib import Path

from ineqlab.cli import main
from ineqlab.copositive import PROPERTY_K_DIM_CAP
from ineqlab.linalg import DIM_CAP

DATA = Path(__file__).parent / "data"

CASES = 3000

# the longest error line a case may print, newline included: a message quotes
# at most the first 40 characters of what it could not read
MESSAGE_CHARS = 300

# a JSON or text number, and a count: a JSON 'n' or 'm' field, or a text matrix's first line
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
COUNT = re.compile(r'"[nm]":\s*\d+|\A\d+')
# a row: an innermost JSON list, or a text matrix's line after the first
JSON_ROW = re.compile(r"\[[^\[\]]*\]")
TEXT_ROW = re.compile(r"(?<=\n)[^\n]+")


def sources():
    """(text, command) for each input file under tests/data and each command
    that reads its format, and for the copositive golden's inputs at m <= 4."""
    readers = {"bw_pair_": ["bw-verify"], "spectrum_": ["spectrum", "copositive"]}
    found = []
    for path in sorted(DATA.iterdir()):
        if path.name.endswith("_h.json"):
            commands = ["curvature"]
        elif path.name.endswith("_tuple.json"):
            commands = ["ddvv-verify", "reduce"]
        else:
            commands = next((c for prefix, c in readers.items()
                             if path.name.startswith(prefix)), [])
        found += [(path.read_text(), command) for command in commands]
    golden = json.loads((DATA / "golden_copositive_cli.json").read_text())
    inputs = sorted({case["input"] for case in golden.values()})
    found += [(text, "copositive") for text in inputs if dimension(text) <= 4]
    return found


def dimension(text):
    """The n of a valid matrix file, JSON or text."""
    return json.loads(text)["n"] if text.startswith("{") else int(text.split()[0])


def replace_one(rng, text, pattern, new):
    """text with one match of pattern, chosen by rng, replaced by new(match)."""
    spans = [m.span() for m in pattern.finditer(text)]
    if not spans:
        return text
    a, b = rng.choice(spans)
    return text[:a] + new(text[a:b]) + text[b:]


def flip_bits(rng, data):
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def insert_cr(rng, text):
    if rng.random() < 0.5:
        return text.replace("\n", rng.choice(["\r", "\r\n"]))
    at = rng.randrange(len(text) + 1)
    return text[:at] + "\r" + text[at:]


def duplicate_n(rng, text):
    """a second 'n' key, last in the top-level object, so that it is the one
    read; a text matrix gets a second first line"""
    value = str(rng.randint(0, DIM_CAP + 1))
    if text.startswith("{"):
        end = text.rindex("}")
        return text[:end] + f', "n": {value}' + text[end:]
    return value + "\n" + text


def row_off_by_one(rng, text):
    """one row, an innermost JSON list or a text line after the first, with a
    value more or one fewer"""
    def change(row):
        bracketed = row.startswith("[")
        values = row[1:-1].split(",") if bracketed else row.split()
        if rng.random() < 0.5:
            values.append("0")
        else:
            values.pop()
        return f"[{','.join(values)}]" if bracketed else " ".join(values)
    return replace_one(rng, text, JSON_ROW if text.startswith("{") else TEXT_ROW, change)


def at_cap(rng, text, cap):
    value = str(cap + rng.choice((-1, 0, 1)))
    return replace_one(rng, text, COUNT, lambda token: re.sub(r"\d+$", value, token))


# each mutation maps (rng, text, cap) to the mutated file's bytes
MUTATIONS = {
    "long-int": lambda rng, text, cap: replace_one(rng, text, NUMBER, lambda _: "9" * 4301),
    "nan": lambda rng, text, cap: replace_one(rng, text, NUMBER, lambda _: "NaN"),
    "infinity": lambda rng, text, cap: replace_one(
        rng, text, NUMBER, lambda _: rng.choice(["Infinity", "-Infinity"])),
    "1e400": lambda rng, text, cap: replace_one(
        rng, text, NUMBER, lambda _: rng.choice(["1e400", "-1e400"])),
    "deep": lambda rng, text, cap: replace_one(
        rng, text, NUMBER, lambda token: "[" * 3000 + token + "]" * 3000),
    "bool": lambda rng, text, cap: replace_one(
        rng, text, NUMBER, lambda _: rng.choice(["true", "false"])),
    "bom": lambda rng, text, cap: "\ufeff" + text,
    "cr": lambda rng, text, cap: insert_cr(rng, text),
    "truncate": lambda rng, text, cap: text[:rng.randrange(len(text))],
    "flip": lambda rng, text, cap: flip_bits(rng, text.encode()),
    "empty": lambda rng, text, cap: b"",
    "duplicate-key": lambda rng, text, cap: duplicate_n(rng, text),
    "row-off-by-one": lambda rng, text, cap: row_off_by_one(rng, text),
    "cap": at_cap,
}


def reject_constant(name):
    raise ValueError(f"the document holds {name}")


def test_no_input_escapes_main(capsys, tmp_path):
    rng = random.Random(2101)
    found, kinds = sources(), sorted(MUTATIONS)
    path = tmp_path / "in"
    escapes, broken, codes = [], [], set()
    for k in range(CASES):
        text, command = rng.choice(found)
        kind = rng.choice(kinds)
        cap = PROPERTY_K_DIM_CAP if command == "copositive" and rng.random() < 0.5 else DIM_CAP
        data = MUTATIONS[kind](rng, text, cap)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        case = (k, command, kind)
        try:
            code = main([command, "--input", str(path), "--format", "json"])
        except (Exception, SystemExit) as exc:  # an escape: recorded, to report every case
            escapes.append((*case, repr(exc)[:200]))
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        codes.add(code)
        if code in (0, 1):
            try:
                json.loads(out, parse_constant=reject_constant)
            except ValueError as exc:
                broken.append((*case, code, str(exc)[:200]))
        elif code in (2, 3):
            if (out or err.count("\n") != 1 or not err.endswith("\n")
                    or len(err) > MESSAGE_CHARS):
                broken.append((*case, code, (out + err)[:200]))
        else:
            broken.append((*case, code, err[:200]))
    assert escapes == []
    assert broken == []
    assert {0, 2} <= codes  # the corpus reaches both a verdict and a refusal
