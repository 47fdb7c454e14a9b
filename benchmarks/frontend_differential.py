"""Compare the Mini-C front end of two checkouts on the same inputs.

    python3 benchmarks/frontend_differential.py OLD_ROOT [NEW_ROOT]

NEW_ROOT defaults to this checkout.  The inputs are made once, from
NEW_ROOT: the bench suite, ``tests/corpus``, generator seeds 0-299 at
the small, medium and large sizes, 50,000 random expressions and
200,000 random character strings.  Each checkout then tokenizes and
parses every input in its own interpreter and records the token list
(kind, text, value, location) or the ``FrontendError`` text, and the
AST ``repr`` plus ``pretty_program`` text or the error text.  Prints,
per input class, how many inputs there are and how many differ, then
one line per differing input.  Exits non-zero when any input differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_ATOMS = ["a", "b", "x1", "_t", "0", "7", "12", "3.5", ".25", "1e3", "2.5E-2",
          "f(a)", "g(a, b)", "h()", "m[1]", "m[i][j]", "m[1][2][3]", "v[]"]
_BINARY = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]
_JUNK = ["=", "!", "-", "(", ")", "[", "]", ",", ";", "{", "}", "", "", "", ""]
_CHARS = list("abcxyz_019eE.+-*/%<>=!&|()[]{},; \t\n\r") + [
    "//", "/*", "*/", "int ", "float ", "void ", "if", "else", "while", "for",
    "return", "print", "\f", "\v", "\xa0", "$", "@", "#", "é", "ß",
    "²", "٣", "½", "Ⅻ", "四", '"', "'", "\\", "\x00",
]


def _expression(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice(_ATOMS)
    if roll < 0.45:
        return rng.choice(["-", "!", "- ", "!!", "--"]) + _expression(rng, depth - 1)
    if roll < 0.6:
        return "(" + _expression(rng, depth - 1) + ")"
    if roll < 0.63:
        return _expression(rng, depth - 1) + rng.choice(_JUNK)
    gap = rng.choice([" ", "", "  ", "\n"])
    return gap.join([_expression(rng, depth - 1), rng.choice(_BINARY),
                     _expression(rng, depth - 1)])


def inputs(root: Path):
    """Yield (label, source) pairs; needs ``root/src`` on ``sys.path``."""
    from repro.testing.generator import random_source

    for path in sorted((root / "src/repro/bench/programs").glob("*.mc")):
        yield f"bench:{path.name}", path.read_text()
    for path in sorted((root / "tests/corpus").glob("*.mc")):
        yield f"corpus:{path.name}", path.read_text()
    for size in ("small", "medium", "large"):
        for seed in range(300):
            yield f"generated:{size}:{seed}", random_source(seed, size)
    rng = random.Random(22)
    for i in range(50_000):
        expr = _expression(rng, rng.randint(1, 6))
        yield f"expression:{i}", f"int f(int a, int b) {{\n  return {expr};\n}}\n"
    for i in range(200_000):
        yield f"characters:{i}", "".join(
            rng.choice(_CHARS) for _ in range(rng.randint(0, 40)))


def describe(source: str) -> str:
    """Everything the front end makes of ``source``, as text."""
    from repro.frontend import parse, pretty_program, tokenize

    parts = []
    # Any exception is an outcome to compare: a crash on one side and a
    # FrontendError on the other is a difference.
    try:
        parts.append(repr([
            (t.kind.name, t.text, t.value, t.location.line, t.location.column)
            for t in tokenize(source, "in.mc")
        ]))
    except Exception as err:  # noqa: BLE001
        parts.append(f"{type(err).__name__}: {err}")
    try:
        program = parse(source, "in.mc")
        parts += [repr(program), pretty_program(program)]
    except Exception as err:  # noqa: BLE001
        parts.append(f"{type(err).__name__}: {err}")
    return "\n".join(parts)


def digests(root: Path, inputs_file: str) -> list:
    """One sha1 per input, computed by ``root``'s front end."""
    done = subprocess.run(
        [sys.executable, __file__, "--digest", inputs_file],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"frontend_differential: {root} failed:\n{done.stderr}")
    return done.stdout.split()


def main(argv: list) -> int:
    if argv[:1] == ["--digest"]:
        with open(argv[1], encoding="utf-8") as handle:
            for line in handle:
                text = describe(json.loads(line)[1])
                print(hashlib.sha1(text.encode()).hexdigest())
        return 0
    old = Path(argv[0]).resolve()
    new = Path(argv[1]).resolve() if len(argv) > 1 else ROOT
    sys.path.insert(0, str(new / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        inputs_file = os.path.join(scratch, "inputs.jsonl")
        with open(inputs_file, "w", encoding="utf-8") as handle:
            pairs = list(inputs(new))
            for pair in pairs:
                handle.write(json.dumps(pair) + "\n")
        before, after = digests(old, inputs_file), digests(new, inputs_file)
    totals: dict = {}
    differing = []
    for (label, source), a, b in zip(pairs, before, after):
        kind = label.split(":")[0]
        counts = totals.setdefault(kind, [0, 0])
        counts[0] += 1
        if a != b:
            counts[1] += 1
            differing.append(f"{label}\t{source!r}")
    for kind, (count, differ) in totals.items():
        print(f"{kind}: {count} inputs, {differ} differ")
    print("\n".join(differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
