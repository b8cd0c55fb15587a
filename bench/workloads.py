"""The benchmark's workloads: seeded inputs, one timed pass, verdict checks.

Each workload class builds its inputs from the seed in __init__ (that is
the set-up the benchmark times), runs every operation of one pass through
Run.op, which times the call and keeps its verdict, and checks each verdict
in check(), which the runner calls after the pass, outside the timed calls
and with tracing removed.  Library functions are always reached through
their module (I.reduce, not a local alias), so that a traced run sees the
tracer's wrappers.

Pinned values were computed at the commit that introduced the benchmark
and agree with the README table and the acceptance tests where those give
them.
"""

import contextlib
import io
import itertools
import json
import random
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction

from nilalg import cli
from nilalg import ideal as I
from nilalg import invariants as V
from nilalg import rewrite4 as R
from nilalg import words as W
from nilalg.formal import FormalSum

_clock = time.perf_counter


class Op:
    __slots__ = ("kind", "arg", "value", "seconds", "error")

    def __init__(self, kind, arg, value, seconds, error):
        self.kind = kind
        self.arg = arg
        self.value = value
        self.seconds = seconds
        self.error = error


class Run:
    """Collects the timed operations of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []

    def op(self, kind, fn, arg=None):
        span = self.tracer.task(kind) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = _clock()
            try:
                value, error = fn(arg), None
            except Exception:  # a failing operation is counted, not fatal
                value, error = None, traceback.format_exc()
            seconds = _clock() - t0
        self.ops.append(Op(kind, arg, value, seconds, error))
        return value


def verdicts(ops):
    return [(op.kind, op.value) for op in ops]


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def sorted_multidegrees(total, d):
    """Weakly decreasing length-d vectors of nonnegative ints with this sum."""
    return [
        tuple(v)
        for v in itertools.product(range(total, -1, -1), repeat=d)
        if sum(v) == total and all(a >= b for a, b in zip(v, v[1:]))
    ]


# ---------------------------------------------------------------------------

# C(4,2,p) for the scanned characteristics; 10 at p = 0 and p = 3 is the
# README table and the acceptance golden value.
PINNED_C4 = {0: 10, 3: 10, 5: 10, 7: 10}
# quotient dimensions at n = 5, d = 2 of the components (4,4), (5,4), (5,5)
PINNED_N5 = {
    3: {(4, 4): 34, (5, 4): 41, (5, 5): 50},
    5: {(4, 4): 34, (5, 4): 41, (5, 5): 53},
    7: {(4, 4): 34, (5, 4): 41, (5, 5): 50},
}
EXACT_TIMEOUT_SEC = "900"


def _cli_exact(p):
    argv = ["exact", "--n", "4", "--d", "2", "--p", str(p), "--max-deg", "11",
            "--json", "--timeout-sec", EXACT_TIMEOUT_SEC]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["degree"]


class DegreeScan:
    """Cold nilpotency scans: C(4,2,0), C(4,2,p) and an n = 5 chain."""

    name = "degree_scan"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.p = rng.choice((3, 5, 7))
        self.chain = [(4, 4), rng.choice(((5, 4), (4, 5))), (5, 5)]

    def _chain(self, _):
        return tuple(I.quotient_dimension(5, 2, self.p, delta) for delta in self.chain)

    def run_pass(self, run):
        # the cache is cleared before each target: a CLI user pays every build
        I.clear_cache()
        run.op("c_4_2_0", _cli_exact, 0)
        I.clear_cache()
        run.op("c_4_2_p", _cli_exact, self.p)
        I.clear_cache()
        run.op("n5", self._chain)

    def check(self, op):
        if op.kind == "c_4_2_0":
            return op.value == (0, PINNED_C4[0])
        if op.kind == "c_4_2_p":
            return op.value == (0, PINNED_C4[self.p])
        pinned = PINNED_N5[self.p]
        expected = tuple(pinned[tuple(sorted(d, reverse=True))] for d in self.chain)
        # letter-permutation symmetry: the swapped middle component, built as
        # a child of (5,5), must have the same dimension
        swapped = I.quotient_dimension(5, 2, self.p, self.chain[1][::-1])
        return op.value == expected and swapped == expected[1]

    @staticmethod
    def details(passes):
        out = {}
        for kind in ("c_4_2_0", "c_4_2_p", "n5"):
            times = [op.seconds for ops in passes for op in ops if op.kind == kind]
            out[kind + "_s"] = (statistics.median(times), "s", len(times))
        return out


# ---------------------------------------------------------------------------

# quotient dimensions over Q at n = 4 of every component the build phase makes
PINNED_BUILD_QDIM = {
    (1, 0): 1, (2, 0): 1, (1, 1): 2, (3, 0): 1, (2, 1): 3, (4, 0): 0, (3, 1): 3,
    (2, 2): 5, (5, 0): 0, (4, 1): 2, (3, 2): 6, (6, 0): 0, (5, 1): 1, (4, 2): 5,
    (3, 3): 8, (7, 0): 0, (6, 1): 0, (5, 2): 3, (4, 3): 7, (8, 0): 0, (7, 1): 0,
    (6, 2): 1, (5, 3): 4, (4, 4): 5, (9, 0): 0, (8, 1): 0, (7, 2): 0, (6, 3): 1,
    (5, 4): 2,
    (1, 0, 0): 1, (2, 0, 0): 1, (1, 1, 0): 2, (3, 0, 0): 1, (2, 1, 0): 3,
    (1, 1, 1): 6, (4, 0, 0): 0, (3, 1, 0): 3, (2, 2, 0): 5, (2, 1, 1): 11,
    (5, 0, 0): 0, (4, 1, 0): 2, (3, 2, 0): 6, (3, 1, 1): 13, (2, 2, 1): 22,
    (6, 0, 0): 0, (5, 1, 0): 1, (4, 2, 0): 5, (4, 1, 1): 11, (3, 3, 0): 8,
    (3, 2, 1): 28, (2, 2, 2): 45, (7, 0, 0): 0, (6, 1, 0): 0, (5, 2, 0): 3,
    (5, 1, 1): 6, (4, 3, 0): 7, (4, 2, 1): 23, (3, 3, 1): 34, (3, 2, 2): 54,
    (8, 0, 0): 0, (7, 1, 0): 0, (6, 2, 0): 1, (6, 1, 1): 2, (5, 3, 0): 4,
    (5, 2, 1): 12, (4, 4, 0): 5, (4, 3, 1): 23, (4, 2, 2): 35, (3, 3, 2): 49,
}
MAX_TOTAL = {2: 9, 3: 8}
N_QUERIES = 2000
QUERY_KINDS = ("reduce", "contains", "canonicalize", "equiv_gtr", "equiv_succ")
QUERY_WEIGHTS = (30, 25, 25, 10, 10)
# the certificate search is dense in the component's width, so equivalence
# queries stay on components of at most this many words
EQUIV_MAX_WORDS = 90
THETAS = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def _random_sum(rng, delta, nterms):
    """A random sum in the style of the property suite's random_sum."""
    letters = [k + 1 for k, e in enumerate(delta) for _ in range(e)]
    nterms = min(nterms, W.word_count(delta))
    chosen = set()
    while len(chosen) < nterms:
        rng.shuffle(letters)
        chosen.add(tuple(letters))
    return FormalSum({w: rng.randint(-3, 3) or 1 for w in sorted(chosen)}, len(delta), 0)


def _random_word(rng, d, length):
    return tuple(rng.randint(1, d) for _ in range(length))


def _ideal_member(rng, d):
    """A bordered polarization u * T_theta(a_1..a_r) * v of x^4, built here
    independently of nilalg, with its letters renamed so that the
    multidegree is weakly decreasing.  Every such sum lies in the ideal."""
    while True:
        theta = rng.choice(THETAS)
        args = [_random_word(rng, d, rng.randint(1, 2)) for _ in theta]
        u = _random_word(rng, d, rng.randint(0, 1))
        v = _random_word(rng, d, rng.randint(0, 1))
        if len(u) + len(v) + sum(t * len(a) for t, a in zip(theta, args)) <= MAX_TOTAL[d]:
            break
    slots = [i for i, t in enumerate(theta) for _ in range(t)]
    terms = Counter()
    for arrangement in set(itertools.permutations(slots)):
        terms[u + sum((args[i] for i in arrangement), ()) + v] += 1
    word = next(iter(terms))
    order = sorted(range(1, d + 1), key=lambda k: -word.count(k))
    rename = {old: new for new, old in enumerate(order, 1)}
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    return FormalSum(
        {tuple(rename[x] for x in w): c * m for w, m in sorted(terms.items())}, d, 0
    )


def _reduce(f):
    return I.reduce(4, 0, f)


def _contains(f):
    return I.contains(4, 0, f)


def _canonicalize(f):
    return R.canonicalize(f.d, 0, f)


def _equiv_gtr(f):
    return I.equiv_zero_certificate(4, 0, f, "gtr")


def _equiv_succ(f):
    return I.equiv_zero_certificate(4, 0, f, "succ")


def _build(delta):
    return I.component_basis(4, len(delta), 0, delta).quotient_dimension


class ReduceQ:
    """Cold build of the n = 4 components over Q, then warm queries."""

    name = "reduce_q"
    QUERIES = {"reduce": _reduce, "contains": _contains,
               "canonicalize": _canonicalize, "equiv_gtr": _equiv_gtr,
               "equiv_succ": _equiv_succ}

    def __init__(self, seed):
        rng = random.Random(seed)
        self.build = [delta for d in (2, 3) for total in range(1, MAX_TOTAL[d] + 1)
                      for delta in sorted_multidegrees(total, d)]
        queryable = [delta for delta in self.build if sum(delta) >= 2]
        small = [delta for delta in queryable if W.word_count(delta) <= EQUIV_MAX_WORDS]
        self.queries = []
        for kind in rng.choices(QUERY_KINDS, QUERY_WEIGHTS, k=N_QUERIES):
            if kind == "contains" and rng.random() < 0.5:
                f = _ideal_member(rng, rng.choice((2, 3)))
                kind = "contains_member"
            else:
                pool = small if kind.startswith("equiv") else queryable
                f = _random_sum(rng, rng.choice(pool), rng.randint(1, 4))
            self.queries.append((kind, f))

    def run_pass(self, run):
        I.clear_cache()
        for delta in self.build:
            run.op("build", _build, delta)
        for kind, f in self.queries:
            run.op(kind, self.QUERIES[kind.replace("_member", "")], f)

    def check(self, op):
        f, g = op.arg, op.value
        if op.kind == "build":
            return g == PINNED_BUILD_QDIM[f]
        if op.kind == "reduce":
            return I.contains(4, 0, f - g) and I.reduce(4, 0, g) == g
        if op.kind == "contains_member":
            return g is True
        if op.kind == "contains":
            return g == I.reduce(4, 0, f).is_zero()
        if op.kind == "canonicalize":
            return (all(R.is_canonical_word(w, f.d) for w in g.terms)
                    and I.contains(4, 0, f - g)
                    and R.canonicalize(f.d, 0, g) == g)
        ok, cert = g
        return I.contains(4, 0, f - cert) if ok else cert is None

    @staticmethod
    def details(passes):
        builds = [sum(op.seconds for op in ops if op.kind == "build") for ops in passes]
        queries = [op.seconds * 1e3 for ops in passes for op in ops if op.kind != "build"]
        return {
            "build_q_s": (statistics.median(builds), "s", len(builds)),
            "query_p50_ms": (statistics.median(queries), "ms", len(queries)),
            "query_p99_ms": (percentile(queries, 99), "ms", len(queries)),
        }


# ---------------------------------------------------------------------------

GEN_CHECK_PRIMES = (0, 2, 3)
GEN_CHECK_EXTRA_DEG = 4
PINNED_GEN_CASES = 69  # cases of generation_check(2, 2, p, extra_deg=4)
PINNED_GENERATORS = 11  # generator_set(2, 2, 0)
N_CONJ = 1000


def _gen_check(p):
    summary = V.generation_check(2, 2, p, extra_deg=GEN_CHECK_EXTRA_DEG)["summary"]
    return summary["all_pass"], summary["total"], summary["passed"]


def _generators(_):
    return V.generator_set(2, 2, 0).all()


class Invariants:
    """Generation checks for 2 x 2 invariants and conjugation samples."""

    name = "invariants"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.samples = []
        while len(self.samples) < N_CONJ:
            A = [[[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
                 for _ in range(2)]
            g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
                continue
            frac = [[[Fraction(x) for x in row] for row in M] for M in A]
            g = [[Fraction(x) for x in row] for row in g]
            self.samples.append((rng.randrange(PINNED_GENERATORS), A, frac, g))
        self.gens = None

    def _conj(self, sample):
        index, A, frac, g = sample
        poly = self.gens[index].poly
        left = poly.evaluate(V.matrix_values(2, 2, A))
        right = poly.evaluate(V.matrix_values(2, 2, V.conjugate_tuple(frac, g)))
        return left, right

    def run_pass(self, run):
        for p in GEN_CHECK_PRIMES:
            run.op("gen_check_p%d" % p, _gen_check, p)
        self.gens = run.op("generators", _generators)
        for sample in self.samples:
            run.op("conj", self._conj, sample)

    def check(self, op):
        if op.kind == "generators":
            return len(op.value) == PINNED_GENERATORS
        if op.kind == "conj":
            return op.value[0] == op.value[1]
        return op.value == (True, PINNED_GEN_CASES, PINNED_GEN_CASES)

    @staticmethod
    def details(passes):
        gen = [sum(op.seconds for op in ops if op.kind.startswith("gen_check"))
               for ops in passes]
        conj = [op.seconds * 1e3 for ops in passes for op in ops if op.kind == "conj"]
        return {
            "gen_check_s": (statistics.median(gen), "s", len(gen)),
            "conj_p50_ms": (statistics.median(conj), "ms", len(conj)),
            "conj_p99_ms": (percentile(conj, 99), "ms", len(conj)),
        }


WORKLOADS = {cls.name: cls for cls in (DegreeScan, ReduceQ, Invariants)}


def check_ops(workload, ops):
    """Number of failed operations; failures are described on stderr."""
    failed = 0
    for op in ops:
        ok = False
        if op.error is None:
            try:
                ok = bool(workload.check(op))
            except Exception:
                op.error = traceback.format_exc()
        if not ok:
            failed += 1
            print("FAILED %s: %s" % (op.kind, op.error or "wrong verdict %r" % (op.value,)),
                  file=sys.stderr)
    return failed
