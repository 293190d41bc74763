"""Seeded job plans for the benchmark workloads.

A plan is a list of rounds. Each round holds one job per stratum of the
workload's template, in the template's order: every round allocates and
frees memory in the same sequence, so peak memory does not hang on a seeded
order of jobs. The seed picks each stratum's
sizes from a small pool (so sizes repeat across rounds), and the random
patterns, partitions and moduli. run.py runs whole rounds until its time
is up, so every run measures the same mix. Some first rounds differ:
``enumerate`` and ``exponents`` start with a preamble of one-off heavy jobs, and
``bigint`` runs its first round in ascending Bell index, so that it grows the
Bell table step by step and later rounds only read it.

``exact`` is the union of ``exponents`` and ``bigint``: each of its rounds is
one round of each, back to back. BENCHMARK.json runs ``enumerate`` and
``exact``; two workloads leave time for runs long enough to average out the
host's swings in speed. ``exponents`` and ``bigint`` stay runnable on their
own, to look at one group of layers at a time.

A job is a dict: ``{"id", "kind": "cli", "argv", "check"}`` for one
``partstats.cli.run(argv)`` call, or ``{"id", "kind": "product", "a", "b",
"n", "check"}`` for the library call ``aggregate(builtin(a) * builtin(b), n)``.
``check`` is what the checker in run.py needs; the worker ignores it.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import checks

MAX_ROUNDS = 80
WORK_BAND = (10000, 20000)

# `bell --max N` prints B_N, which has more than 4300 digits for N >= 1981;
# CPython 3.11 refuses to str() such an int, so the CLI exits 2 there.
BELL_STR_LIMIT_N = 1980

# Builtin statistics as pattern specs (``q`` as exact terms, see q_text),
# keyed by the name the product job passes to ``statistics.builtin``.
BUILTINS = {
    "blocks": ({}, {"length": 1, "blocks": [[1]], "firsts": [1], "q": [[1, 1, [0, 0]]]}),
    "crossings_k": ({"k": 2}, {"length": 4, "blocks": [[1, 3], [2, 4]], "arcs": [[1, 3], [2, 4]],
                               "q": [[1, 1, [0] * 5]]}),
    "nestings": ({}, {"length": 4, "blocks": [[1, 4], [2, 3]], "arcs": [[1, 4], [2, 3]], "q": [[1, 1, [0] * 5]]}),
    "levels": ({}, {"length": 2, "blocks": [[1, 2]], "arcs": [[1, 2]], "consecutive": [[1, 2]],
                    "q": [[1, 1, [0] * 3]]}),
    "blocks_of_size": ({"i": 2}, {"length": 2, "blocks": [[1, 2]], "firsts": [1], "lasts": [2], "arcs": [[1, 2]],
                                  "q": [[1, 1, [0] * 3]]}),
    "blocks_choose": ({"k": 2}, {"length": 2, "blocks": [[1], [2]], "firsts": [1, 2], "q": [[1, 1, [0] * 3]]}),
    "firsts_sum": ({}, {"length": 1, "blocks": [[1]], "firsts": [1], "q": [[1, 1, [1, 0]]]}),
    "lasts_sum": ({}, {"length": 1, "blocks": [[1]], "lasts": [1], "q": [[1, 1, [1, 0]]]}),
}

# Workload size windows. Each stratum draws a pool of two sizes from its
# window once per seed. TINY_SIZES has the same keys and keeps self-tests short.
# The bigint strata have one size each (their seed draws moduli and asym
# targets): the Bell table and the multi-megabyte outputs set the worker's peak
# memory, and sizes drawn per seed move it by about 6% from seed to seed.
SIZES = {
    "enumerate": {
        "agg_n": (7, 7), "builtin_n": (8, 8), "brute_dim_n": (7, 7), "brute_int_lo": (8, 8),
        "brute_int_hi": (9, 9), "eval_n": (5, 30), "product_n": (5, 5), "pre_product_n": (5, 5),
        "pre_agg_n": (9, 9),
    },
    "exponents": {
        "dim_lo": (20, 21), "int_lo": (20, 21), "mdim_lo": (60, 62), "mdim_lo2": (100, 102),
        "mint_lo": (20, 21),
        "dim_mid": (30, 31), "int_mid": (30, 31), "mdim_mid": (120, 124), "mdim_mid2": (150, 152),
        "mint_mid": (30, 31),
        "dim_hi": (38, 39), "int_hi": (34, 35), "int_hi2": (37, 38), "mdim_hi": (180, 184),
        "mint_hi": (40, 41), "mdim_top": (170, 172), "dim_top": (41, 42), "int_top": (40, 41),
    },
    "bigint": {
        "bell_lo": (400, 400), "bell_mid1": (1440, 1440), "bell_mid2": (1480, 1480),
        "bell_mid3": (1520, 1520), "bell_mid4": (1560, 1560), "bell_mid5": (1600, 1600), "bell_hi": (1820, 1820),
        "bell_top": (BELL_STR_LIMIT_N, BELL_STR_LIMIT_N),
        "mod_lo": (500, 500), "mod_mid": (1300, 1300), "mod_hi": (2280, 2280), "mod_top": (3040, 3040),
        "asym_a": (300, 300), "asym_b": (1000, 1000), "asym_c": (2000, 2000), "asym_d": (3000, 3000),
    },
}
SIZES["bigint-full"] = dict(SIZES["bigint"], bell_top=(BELL_STR_LIMIT_N + 1, 2500))
SIZES["exact"] = dict(SIZES["exponents"], **SIZES["bigint"])

TINY_SIZES = {
    "enumerate": dict.fromkeys(SIZES["enumerate"], (4, 5)),
    "exponents": dict.fromkeys(SIZES["exponents"], (8, 12)),
    "bigint": dict.fromkeys(SIZES["bigint"], (20, 60)),
    "bigint-full": dict(dict.fromkeys(SIZES["bigint"], (20, 60)), bell_top=(1981, 1990)),
}
TINY_SIZES["exact"] = dict(TINY_SIZES["exponents"], **TINY_SIZES["bigint"])

WORKLOADS = tuple(SIZES)


# ---------------------------------------------------------------------------
# random pattern documents
# ---------------------------------------------------------------------------

def q_text(terms) -> str:
    """Render exact weight terms ``[num, den, exponents]`` in the pattern DSL.

    ``exponents`` has one entry per position variable y1..yk, then one for m.
    """
    out = []
    for num, den, exps in terms:
        names = ["y%d" % (i + 1) for i in range(len(exps) - 1)] + ["m"]
        factors = [v if e == 1 else "%s^%d" % (v, e) for v, e in zip(names, exps) if e]
        coef = "%d/%d" % (abs(num), den) if den != 1 else "%d" % abs(num)
        body = "*".join(factors if coef == "1" and factors else [coef] + factors)
        if not out:
            out.append(("-" if num < 0 else "") + body)
        else:
            out.append(("- " if num < 0 else "+ ") + body)
    return " ".join(out) if out else "0"


def random_q(rng: random.Random, k: int):
    """One to three terms of degree at most 2 with small rational coefficients."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * (k + 1)
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(k + 1)] += 1
        c = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.choice([1, 1, 2, 3, 4]))
        terms.append([c.numerator, c.denominator, exps])
    return terms


def random_pattern(rng: random.Random, k: int, constant_q: bool = False) -> dict:
    """A random pattern spec: the DSL document plus exact ``q`` terms."""
    labels = [0]
    for _ in range(k - 1):
        labels.append(rng.randint(0, max(labels) + 1))
    blocks = [[i + 1 for i in range(k) if labels[i] == b] for b in range(max(labels) + 1)]
    arcs = [[a, b] for blk in blocks for a, b in zip(blk, blk[1:]) if rng.random() < 0.3]
    spec = {
        "length": k,
        "blocks": blocks,
        "firsts": [i for i in range(1, k + 1) if rng.random() < 0.25],
        "lasts": [i for i in range(1, k + 1) if rng.random() < 0.25],
        "arcs": arcs,
        "consecutive": [[i, i + 1] for i in range(1, k) if rng.random() < 0.15],
    }
    if constant_q:
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        spec["q"] = [[c.numerator, c.denominator, [0] * (k + 1)]]
    else:
        spec["q"] = random_q(rng, k)
    return spec


def builtin_spec(name: str) -> dict:
    return BUILTINS[name][1]


def spec_document(spec: dict) -> dict:
    return dict(spec, q=q_text(spec["q"]))


def random_rgs(rng: random.Random, n: int) -> list:
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(rng.randint(0, max(rgs) + 1))
    return rgs


def partition_text(rgs: list) -> str:
    """Block notation (``1356|27|4``) for n <= 9, comma-separated RGS beyond."""
    if len(rgs) > 9:
        return ",".join(str(a) for a in rgs)
    blocks = [[i + 1 for i, a in enumerate(rgs) if a == b] for b in range(max(rgs) + 1)]
    return "|".join("".join(str(x) for x in blk) for blk in blocks)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

class _PlanMaker:
    def __init__(self, workload: str, seed: int, workdir: str, tiny: bool):
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.workdir = workdir
        self.windows = (TINY_SIZES if tiny else SIZES)[workload]
        # two sizes per stratum, drawn once: jobs of one stratum repeat them
        self.pools = {
            key: sorted({self.rng.randint(lo, hi) for _ in range(2)})
            for key, (lo, hi) in sorted(self.windows.items())
        }
        self.next_id = 0
        self._cycles = {}
        self._partitions = {}

    def cycle(self, items: list):
        """The next item of a seeded order of ``items``, repeated: over a run
        each item is drawn about equally often."""
        key = tuple(map(str, items))
        if key not in self._cycles:
            order = list(items)
            self.rng.shuffle(order)
            self._cycles[key] = [order, 0]
        state = self._cycles[key]
        item = state[0][state[1] % len(items)]
        state[1] += 1
        return item

    def pattern_with_work(self, k: int, n: int) -> dict:
        """A random pattern whose aggregate at n takes a set amount of work:
        occurrences times (2 + weight terms + weight degree) within WORK_BAND,
        counted by the checker's oracle. It keeps random jobs comparable.
        Below n = 7 (tiny plans) any pattern with an occurrence will do."""
        lo, hi = WORK_BAND if n >= 7 else (0, float("inf"))
        if n not in self._partitions:
            self._partitions[n] = checks.Partitions(checks.all_rgs(n))
        for _ in range(10000):
            spec = random_pattern(self.rng, k)
            ones = dict(spec, q=[[1, 1, [0] * (k + 1)]])
            occ = int(self._partitions[n].values(ones)[0].sum())
            work = occ * (2 + len(spec["q"]) + sum(sum(e) for _, _, e in spec["q"]))
            if occ and lo <= work <= hi:
                return spec
        raise RuntimeError("no pattern of length %d in the work band at n=%d" % (k, n))

    def size(self, key: str) -> int:
        return self.rng.choice(self.pools[key])

    def job(self, kind: str, check: dict, **fields) -> dict:
        job = {"id": self.next_id, "kind": kind, "check": check, **fields}
        self.next_id += 1
        return job

    def cli(self, argv: list, check: dict) -> dict:
        return self.job("cli", check, argv=[str(a) for a in argv])

    def pattern_file(self, spec: dict) -> str:
        path = os.path.join(self.workdir, "p%d.json" % self.next_id)
        with open(path, "w") as fh:
            json.dump(spec_document(spec), fh)
        return path


# Every round has as many light jobs as heavy ones around an odd-sized middle
# band of jobs of similar cost, so that the median job lands inside that band
# and the tail (see run.py) inside the heaviest band of the round.

def _enumerate_round(b: _PlanMaker, first: bool, tiny: bool) -> list:
    rng = b.rng

    def aggregate(spec, n):
        return b.cli(["aggregate", "--pattern", b.pattern_file(spec), "--n", n],
                     {"kind": "aggregate", "spec": spec, "n": n})

    def product(name_a, name_b, n):
        return b.job("product", {"kind": "product", "a": builtin_spec(name_a), "b": builtin_spec(name_b), "n": n},
                     a=[name_a, BUILTINS[name_a][0]], b=[name_b, BUILTINS[name_b][0]], n=n)

    def brute(target, key):
        n = b.size(key)
        return b.cli(["dist", target, "--n", n, "--brute"], {"kind": "dist", "target": target, "n": n, "brute": True})

    def evaluate():
        spec = random_pattern(rng, rng.randint(1, 4))
        rgs = random_rgs(rng, max(spec["length"], rng.randint(*b.windows["eval_n"])))
        return b.cli(["eval", "--pattern", b.pattern_file(spec), "--partition", partition_text(rgs)],
                     {"kind": "eval", "spec": spec, "rgs": rgs})

    def fit():
        spec = random_pattern(rng, 1, constant_q=True)
        firsts, lasts = b.cycle([(False, False), (True, False), (False, True), (True, True)])
        spec.update(firsts=[1] if firsts else [], lasts=[1] if lasts else [])
        return b.cli(["fit", "--pattern", b.pattern_file(spec)], {"kind": "fit_pattern", "spec": spec})

    if first:  # one-off heavy jobs: a 658-term merge, and enumeration at n = 9
        return [aggregate(builtin_spec("blocks"), b.size("pre_agg_n")),
                product("crossings_k", "nestings", b.size("pre_product_n"))]
    light = [evaluate() for _ in range(4)] + [
        product(*b.cycle([("blocks", "levels"), ("levels", "nestings"), ("blocks", "blocks"),
                          ("firsts_sum", "blocks"), ("blocks_of_size", "levels")]), b.size("product_n")),
        brute("int", "brute_int_lo"),
    ]
    middle = [aggregate(b.pattern_with_work(k, b.size("agg_n")), b.size("agg_n"))
              for k in (1, 2, 3, 4, b.cycle([1, 2, 3, 4]))]
    heavy = [brute("dim", "brute_dim_n"), brute("int", "brute_int_hi"), fit()] + [
        aggregate(builtin_spec(b.cycle(sorted(BUILTINS))), b.size("builtin_n")) for _ in range(3)]
    return light + middle + heavy


def _exponents_round(b: _PlanMaker, first: bool, tiny: bool) -> list:
    def dist(target, key):
        n = b.size(key)
        return b.cli(["dist", target, "--n", n], {"kind": "dist", "target": target, "n": n, "brute": False})

    def moments(target, key, k):
        n = b.size(key)
        return b.cli(["moments", target, "--n", n, "--k", k], {"kind": "moments", "target": target, "n": n, "k": k})

    def fit(target, k):
        return b.cli(["fit", "--target", target, "--k", k], {"kind": "fit_target", "target": target, "k": k})

    if first:  # one-off heavy job: the 55-unknown elimination of the int k = 3 fit
        return [fit("int", 2 if tiny else 3)]
    light = [fit("dim", 1), fit("dim", 2), fit("dim", 3), fit("int", 1),
             dist("dim", "dim_lo"), dist("int", "int_lo"), moments("dim", "mdim_lo", 1),
             moments("dim", "mdim_lo2", 1), moments("int", "mint_lo", 1)]
    middle = [dist("dim", "dim_mid"), dist("int", "int_mid"), moments("dim", "mdim_mid", 2),
              moments("dim", "mdim_mid2", 2), moments("int", "mint_mid", 2)]
    heavy = [fit("int", 2), dist("dim", "dim_hi"), dist("int", "int_hi"), dist("int", "int_hi2"),
             moments("dim", "mdim_hi", 3), moments("int", "mint_hi", 3), moments("dim", "mdim_top", 4),
             dist("dim", "dim_top"), dist("int", "int_top")]
    return light + middle + heavy


def _bigint_round(b: _PlanMaker, first: bool, tiny: bool) -> list:
    rng = b.rng

    def bell(key):
        n = b.size(key)
        return b.cli(["bell", "--max", n], {"kind": "bell", "n": n, "mod": None})

    def bell_mod(key, small):
        # moduli up to 256 keep the triangle's entries in CPython's cached small ints
        n, m = b.size(key), rng.randint(2, 256) if small else rng.randint(257, 1000003)
        return b.cli(["bell", "--max", n, "--mod", m], {"kind": "bell", "n": n, "mod": m})

    def asym(key):
        n, target = b.size(key), b.cycle(["dim", "int"])
        return b.cli(["asym", "--target", target, "--n", n], {"kind": "asym", "target": target, "n": n})

    light = [asym("asym_a"), asym("asym_b"), asym("asym_c"), asym("asym_d"), bell("bell_lo"),
             bell_mod("mod_lo", False)]
    # five `bell --max` jobs around N = 1500 hold the median of ``bigint`` and
    # ``exact``: their time is mostly big-int str() and formatting, which the
    # host's swings in speed move far less than the interpreted recursions
    middle = [bell("bell_mid%d" % i) for i in range(1, 6)] + [bell_mod("mod_mid", False),
                                                             bell_mod("mod_mid", True)]
    heavy = [bell("bell_hi"), bell("bell_top"), bell_mod("mod_hi", False), bell_mod("mod_hi", True),
             bell_mod("mod_top", False), bell_mod("mod_top", False)]
    jobs = light + middle + heavy
    if first:
        # a ramp in ascending Bell index: each job grows the table a little
        # further, and the later rounds only read it
        jobs.sort(key=lambda job: (job["check"].get("mod") is not None, job["check"]["n"]))
    return jobs


def _exact_round(b: _PlanMaker, first: bool, tiny: bool) -> list:
    return _exponents_round(b, first, tiny) + _bigint_round(b, first, tiny)


_ROUNDS = {
    "enumerate": _enumerate_round,
    "exact": _exact_round,
    "exponents": _exponents_round,
    "bigint": _bigint_round,
    "bigint-full": _bigint_round,
}


def make_plan(workload: str, seed: int, workdir: str, tiny: bool = False,
              rounds: int = MAX_ROUNDS) -> list:
    """The seeded rounds of ``workload``; writes pattern files into ``workdir``."""
    b = _PlanMaker(workload, seed, workdir, tiny)
    plan = []
    for r in range(rounds):
        plan.append(_ROUNDS[workload](b, r == 0, tiny))
    return plan
