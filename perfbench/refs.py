"""Reference answers from the brute-force oracle, never from the walk under test.

The oracle at n = 20 costs about 12 s (its cmp_to_key sort of A_20 alone
about 8 s), so references are computed once per checkout and kept in
``.perfbench/`` under a name that carries a hash of ``src/alphaseq`` and of
the benchmark: a change to either gives a fresh reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"


def text_form(a: tuple[int, ...]) -> str:
    """The CLI's documented text form, restated here so references stay independent."""
    return ",".join(map(str, a)) if a else "0"


def digest(lines: list[str]) -> dict:
    """sha256 and line count of the exact text a command should print."""
    text = "".join(line + "\n" for line in lines)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": len(lines)}


def encode(a: tuple[int, ...]) -> int:
    """Composition as a bit string: each part v is a 1 followed by v - 1 zeros."""
    code = 0
    for v in a:
        code = (code << v) | (1 << (v - 1))
    return code


def decode(code: int) -> tuple[int, ...]:
    bits = bin(code)[2:] if code else ""
    return tuple(len(zeros) + 1 for zeros in bits.split("1")[1:])


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "alphaseq").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cached(name: str, build):
    """``build()`` once per source hash; its JSON result is kept under ``.perfbench/``."""
    path = CACHE / f"refs-{name}-{source_hash()}.json"
    if path.exists():
        return json.loads(path.read_text())
    value = build()
    CACHE.mkdir(exist_ok=True)
    for stale in CACHE.glob(f"refs-{name}-*.json"):
        stale.unlink()
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value))
    tmp.replace(path)
    return value


def oracle_list(set_name: str, n: int) -> list[tuple[int, ...]]:
    from alphaseq import oracle

    return {"an": oracle.oracle_an, "ln": oracle.oracle_ln, "dn": oracle.oracle_dn}[set_name](n)


def list_lines(argv: list[str]) -> list[str]:
    """Expected output of ``list --set S n [--desc]``."""
    items = oracle_list(argv[2], int(argv[3]))
    if "--desc" in argv:
        items = items[::-1]
    return [text_form(a) for a in items]


def command_reference(argv: list[str]) -> dict:
    """Digest and line count of a command's expected output, and the elements it lists or certifies.

    ``verify n_min n_max`` should report every set ok, with the oracle's sizes.
    """
    if argv[0] == "list":
        lines = list_lines(argv)
        return {**digest(lines), "elements": len(lines)}
    if argv[0] == "verify":
        sizes = [(f"{kind}_{n}", len(oracle_list(kind.lower() + "n", n)))
                 for n in range(int(argv[1]), int(argv[2]) + 1) for kind in "ALD"]
        lines = [f"{label}: ok ({size} elements)" for label, size in sizes]
        return {**digest(lines), "elements": sum(size for _, size in sizes)}
    raise ValueError(f"no reference for {argv}")
