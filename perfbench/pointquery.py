"""The point-query workload: single adjacency steps on untrusted inputs.

Run as ``python -m perfbench.pointquery BATCH ANSWERS`` it is the library
child: it reads a JSON batch of queries from BATCH, answers each by one call
into the public ``adjacency`` / ``cells`` functions, and writes the answers,
and the latency of each call as JSON to ANSWERS.
"""

from __future__ import annotations

import json
import random
import sys
import time

from . import refs

N = 20
# (op, set the member is drawn from, neighbour offset in the oracle's list,
# share of a batch): L_20 steps are the majority, so that the median call is
# one of them rather than sitting on the cliff between call kinds
OPS = (
    ("successor_ln", "ln", 1, 2),
    ("predecessor_ln", "ln", -1, 2),
    ("successor_dn", "ln", 1, 1),
    ("successor_an", "an", 1, 1),
    ("predecessor_an", "an", -1, 1),
    ("reject", None, 0, 1),
)
ERROR = "NotInSet"


def references() -> dict:
    """The oracle's ordered L_20, D_20 and A_20, as encoded compositions."""
    return refs.cached(
        "point-query",
        lambda: {s: [refs.encode(a) for a in refs.oracle_list(s, N)] for s in ("ln", "dn", "an")},
    )


class Draw:
    """Seeded queries with their expected answers, taken from the oracle's lists."""

    def __init__(self, ref: dict, rng: random.Random):
        self.ref, self.rng = ref, rng
        self.ln_members = set(ref["ln"])
        self.dn_index = {c: i for i, c in enumerate(ref["dn"])}

    def member(self, set_name: str, offset: int) -> tuple[int, int]:
        codes = self.ref[set_name]
        i = self.rng.randrange(max(0, -offset), len(codes) - max(0, offset))
        return codes[i], codes[i + offset]

    def non_member(self) -> tuple[int, ...]:
        # a uniform composition of N - 1 that the oracle does not list in L_N
        while True:
            code = (1 << (N - 2)) | self.rng.getrandbits(N - 2)
            if code not in self.ln_members:
                return refs.decode(code)

    def query(self, op: str, set_name: str | None, offset: int):
        """(call, expected): call is [function, sequence]; expected a list of sequences or ERROR."""
        if op == "reject":
            fn = self.rng.choice(("successor_ln", "predecessor_ln"))
            return [fn, list(self.non_member())], ERROR
        a, b = self.member(set_name, offset)
        if op == "successor_dn":
            dn = self.ref["dn"]
            burst = dn[self.dn_index[a] + 1: self.dn_index[b] + 1]
            return [op, list(refs.decode(a))], [list(refs.decode(c)) for c in burst]
        return [op, list(refs.decode(a))], [list(refs.decode(b))]

    def batch(self, per_share: int) -> tuple[list, list]:
        pairs = [self.query(op, s, offset) for op, s, offset, share in OPS for _ in range(share * per_share)]
        self.rng.shuffle(pairs)
        return [p[0] for p in pairs], [p[1] for p in pairs]


def public_functions() -> dict:
    from alphaseq import adjacency, cells

    return {
        "successor_ln": adjacency.successor_ln,
        "predecessor_ln": adjacency.predecessor_ln,
        "successor_dn": adjacency.successor_dn,
        "successor_an": cells.successor_an,
        "predecessor_an": cells.predecessor_an,
    }


def run_queries(calls: list, functions: dict) -> tuple[list, list[int]]:
    """Answer each call; returns the answers and each call's latency in ns."""
    from alphaseq.errors import AlphaSequenceError

    answers, latency = [], []
    clock = time.perf_counter_ns
    for name, seq in calls:
        fn, a = functions[name], tuple(seq)
        s = clock()
        try:
            out = fn(a, N) if name.endswith(("_ln", "_dn")) else fn(a)
        except AlphaSequenceError as exc:
            out = type(exc).__name__
        latency.append(clock() - s)
        answers.append(out)
    return answers, latency


def as_json(answer) -> list | str:
    if isinstance(answer, str):
        return answer
    if isinstance(answer, list):
        return [list(a) for a in answer]
    return [list(answer)]


def count_failures(answers: list, expected: list) -> int:
    """Wrong neighbours, accepted non-members and rejected members."""
    return sum(as_json(got) != want for got, want in zip(answers, expected)) + abs(
        len(answers) - len(expected)
    )


def main(batch: str, out: str) -> None:
    with open(batch) as f:
        calls = json.load(f)
    answers, latency = run_queries(calls, public_functions())
    with open(out, "w") as f:
        json.dump({"answers": [as_json(a) for a in answers], "latency_ns": latency}, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
