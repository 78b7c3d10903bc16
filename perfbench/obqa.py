"""The obqa_load workload: a seeded program generator and a naive chase.

The generator writes an ontology-mediated query-answering style program:
a large random fact base over a small ontology, with one symmetric role,
one existential rule and two join rules. The naive evaluator recomputes
the oblivious chase of that program independently of `nocliques`, so the
benchmark can check the CLI's printed instance against it.
"""

import random
import re
from collections import Counter, defaultdict

# (name, body, head) with variables as lowercase strings. Variables of
# the head that are absent from the body are existential.
RULES = [
    ("sym", [("E", ("x", "y"))], [("E", ("y", "x"))]),
    ("gen", [("A", ("x",))], [("E", ("x", "z")), ("B", ("z",))]),
    ("mark", [("E", ("x", "y")), ("B", ("y",))], [("C", ("x",))]),
    ("reach", [("C", ("x",)), ("E", ("x", "y"))], [("D", ("y",))]),
]

RULES_TEXT = """\
sym: E(x,y) -> E(y,x).
gen: A(x) -> E(x,z), B(z).
mark: E(x,y), B(y) -> C(x).
reach: C(x), E(x,y) -> D(y).
?(x) D(x).
"""

# Facts per workload size; constants are a third of the edges so that
# the random graph has repeated endpoints and the joins have fan-out.
DEFAULT_EDGES = 16000
DEFAULT_UNARY = 4000


def generate(seed, edges=DEFAULT_EDGES, unary=DEFAULT_UNARY):
    """Return (program text, facts) for `seed`. `facts` is the set of
    input atoms as (pred, args) tuples; the same seed gives the same
    program, byte for byte."""
    rng = random.Random(seed)
    n = max(4, edges // 3)
    consts = [f"c{i}" for i in range(n)]
    facts = set()
    while len(facts) < edges:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            facts.add(("E", (consts[a], consts[b])))
    for i in rng.sample(range(n), min(unary, n)):
        facts.add(("A", (consts[i],)))
    lines = [f"{p}({','.join(args)})." for p, args in sorted(facts)]
    return "\n".join(lines) + "\n" + RULES_TEXT, facts


def _homs(body, index, binding):
    """All extensions of `binding` mapping the body into the instance.
    `index[(pred, i, t)]` lists the argument tuples of `pred` with `t` at
    position `i`; `index[pred]` lists them all."""
    if not body:
        yield binding
        return
    (pred, args), rest = body[0], body[1:]
    bound = [i for i, v in enumerate(args) if v in binding]
    candidates = (index.get((pred, bound[0], binding[args[bound[0]]]), ())
                  if bound else index.get(pred, ()))
    for fact_args in candidates:
        b = dict(binding)
        if all(b.setdefault(v, t) == t for v, t in zip(args, fact_args)):
            yield from _homs(rest, index, b)


def chase(facts, rules=RULES):
    """The oblivious chase to saturation: every trigger (rule, body
    binding) fires once, inventing one null per existential variable.
    Returns (instance, rounds)."""
    inst = set(facts)
    fired = set()
    nulls = 0
    rounds = 0
    while True:
        index = defaultdict(list)
        for pred, args in inst:
            index[pred].append(args)
            for i, t in enumerate(args):
                index[(pred, i, t)].append(args)
        new = set()
        for name, body, head in rules:
            for h in _homs(body, index, {}):
                key = (name, tuple(sorted(h.items())))
                if key in fired:
                    continue
                fired.add(key)
                ext = dict(h)
                for pred, args in head:
                    for v in args:
                        if v not in ext:
                            nulls += 1
                            ext[v] = f"_:n{nulls}"
                    atom = (pred, tuple(ext[v] for v in args))
                    if atom not in inst:
                        new.add(atom)
        if not new:
            return inst, rounds
        inst |= new
        rounds += 1


def summary(atoms):
    """What the benchmark compares: the atom count, the null-free atoms
    exactly, and the null-carrying atoms up to null renaming (each null
    replaced by `_`, compared as a multiset)."""
    ground, shapes = set(), Counter()
    for pred, args in atoms:
        if any(a.startswith("_:") for a in args):
            shapes[(pred, tuple("_" if a.startswith("_:") else a
                                for a in args))] += 1
        else:
            ground.add((pred, args))
    return len(atoms), ground, shapes


_ATOM = re.compile(r"([A-Z][A-Za-z0-9_']*)\(([^()]*)\)")


def parse_printed(text):
    """The atoms of an instance as `nocliques chase --print` writes it
    (none when the output holds no instance)."""
    start = text.find("{")
    end = text.find("}", start)
    if start < 0 or end < 0:
        return []
    body = text[start:end]
    return [(m.group(1), tuple(t.strip() for t in m.group(2).split(",")))
            for m in _ATOM.finditer(body)]
