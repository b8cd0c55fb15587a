"""Layer tracing for the benchmark, installed from outside the package.

Tracer.install() replaces public functions of nilalg's modules with timing
wrappers at every site that holds them (the defining module, every module
that imported the name, and the package re-exports); uninstall() puts the
original objects back.  Nothing in nilalg knows about the tracer.

Each wrapped call is a frame with a stem name such as "formal.check_char".
Its self time is its duration minus the time of the wrapped calls it made,
so the self times of all frames add up to the time spent inside nilalg.
Frames of component_basis and subalgebra_reduce, and every benchmark task,
are also kept as span records (id, name, start, end, parent, task, self_s);
the hot calls (check_characteristic, t_theta, Echelon.add, Poly.__mul__ and
the rest) only feed per-stem count-and-time accumulators.

Small per-word helpers (x_power, multidegree, validate_word, ...) are not
wrapped: a wrapper would cost more than they do.  Their time counts in the
self time of the wrapped function that calls them.
"""

import contextlib
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, attribute, frame stem, kind); kind None is a plain timed frame.
FUNCTIONS = [
    ("words", "enumerate_words", "words.enumerate", None),
    ("words", "word_sort_key", "words.sort_key", None),
    ("formal", "check_characteristic", "formal.check_char", None),
    ("polarize", "t_theta", "polarize.t_theta", None),
    ("polarize", "bare_instances", "polarize.bare", "generator"),
    ("ideal", "component_basis", "ideal.build_self", "component_basis"),
    ("ideal", "quotient_dimension", "ideal.api_self", "quotient_dimension"),
    ("ideal", "clear_cache", "ideal.api_self", "clear_cache"),
    ("ideal", "nilpotency_degree", "ideal.api_self", None),
    ("ideal", "contains", "ideal.api_self", None),
    ("ideal", "reduce", "ideal.api_self", None),
    ("ideal", "equiv_zero", "ideal.equiv", None),
    ("ideal", "equiv_zero_certificate", "ideal.equiv", None),
    ("rewrite4", "canonicalize", "rewrite4.canonicalize_self", None),
    ("invariants", "sigma_poly", "invariants.sigma", None),
    ("invariants", "subalgebra_reduce", "invariants.subalgebra_reduce_self", "span"),
    ("invariants", "generation_check", "invariants.api_self", None),
    ("invariants", "generator_set", "invariants.api_self", None),
    ("invariants", "sigma_of_word", "invariants.api_self", None),
    ("invariants", "eval_word", "invariants.api_self", None),
    ("invariants", "conjugate_tuple", "invariants.api_self", None),
    ("cli", "main", "cli.self", None),
]

# (module, class, method, frame stem, kind)
METHODS = [
    ("ideal", "Echelon", "add", None, "echelon_add"),
    ("ideal", "Echelon", "residual", "ideal.residual", None),
    ("invariants", "Poly", "__mul__", "invariants.poly_mul", None),
    ("invariants", "Poly", "evaluate", "invariants.evaluate", None),
    ("formal", "FormalSum", "__init__", None, "count_sums"),
]

SPAN_NAMES = {"ideal.build_self": "component_basis",
              "invariants.subalgebra_reduce_self": "gen_check_case"}

TIME_STEMS = [
    "words.enumerate", "words.sort_key", "formal.check_char",
    "polarize.bare", "polarize.t_theta", "ideal.build_self", "ideal.add_modp",
    "ideal.add_q", "ideal.residual", "ideal.equiv", "ideal.api_self",
    "rewrite4.canonicalize_self", "invariants.poly_mul", "invariants.sigma",
    "invariants.subalgebra_reduce_self", "invariants.evaluate",
    "invariants.api_self", "cli.self",
]
CALL_STEMS = ["words.enumerate", "formal.check_char", "polarize.t_theta",
              "ideal.residual", "invariants.poly_mul"]
COUNTERS = ["formal.sums_built", "polarize.bare_offered",
            "polarize.bare_accepted", "ideal.builds_modp", "ideal.builds_q",
            "ideal.cache_hits", "ideal.columns_built", "ideal.rows_offered",
            "ideal.rows_accepted", "ideal.screen_hits", "ideal.q_lifts"]


def _mark(wrapper, original):
    wrapper.__wrapped__ = original
    wrapper.bench_wrapper = True
    return wrapper


class Tracer:
    """Accumulators, spans and the installed wrappers of one traced run."""

    def __init__(self, package, modules):
        self.package = package
        self.modules = modules  # short name -> nilalg submodule
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.task_self = defaultdict(lambda: defaultdict(float))
        self.spans = []
        self.covered = 0.0  # time inside any wrapped call
        self._stack = []  # one [child seconds] cell per open frame
        self._span_stack = []
        self._next_id = 0
        self._task = None
        self._seen = set()  # component keys built since the last clear_cache
        self._qd_depth = 0
        self._lift = False
        self._bare_pending = False
        self._patches = []  # (owner, attribute, original)

    # -- frames ----------------------------------------------------------

    def _call(self, stem, fn, args, kwargs, span=None):
        stack = self._stack
        cell = [0.0]
        stack.append(cell)
        if span:
            sid = self._next_id
            self._next_id += 1
            parent = self._span_stack[-1] if self._span_stack else None
            self._span_stack.append(sid)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            dt = t1 - t0
            own = dt - cell[0]
            if stack:
                stack[-1][0] += dt
            else:
                self.covered += dt
            self.calls[stem] += 1
            self.self_s[stem] += own
            self.task_self[self._task][stem] += own
            if span:
                self._span_stack.pop()
                self.spans.append((sid, span, t0, t1, parent, self._task, own))

    @contextlib.contextmanager
    def task(self, name):
        """A benchmark task: one target, query, gen-check call or sample."""
        sid = self._next_id
        self._next_id += 1
        self._task = sid
        self._span_stack.append(sid)
        covered0 = self.covered
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            self._span_stack.pop()
            self._task = None
            own = (t1 - t0) - (self.covered - covered0)
            self.spans.append((sid, name, t0, t1, None, sid, own))

    # -- wrappers --------------------------------------------------------

    def _plain(self, stem, fn, span=None):
        call = self._call

        def wrapper(*args, **kwargs):
            return call(stem, fn, args, kwargs, span)

        return _mark(wrapper, fn)

    def _generator(self, stem, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = tracer._call(stem, next, (gen,), {})
                    except StopIteration:
                        return
                    tracer.counts["polarize.bare_offered"] += 1
                    tracer._bare_pending = True
                    yield item
            finally:
                tracer._bare_pending = False
                gen.close()

        return _mark(wrapper, fn)

    def _component_basis(self, stem, fn):
        tracer = self
        call = self._call

        def component_basis(n, d, p, delta, limits=None):
            if p == 0 and tracer._qd_depth:
                tracer._lift = True
            key = (n, p, tuple(delta))
            basis = call(stem, fn, (n, d, p, delta, limits), {}, "component_basis")
            counts = tracer.counts
            if key in tracer._seen:
                counts["ideal.cache_hits"] += 1
            else:
                tracer._seen.add(key)
                counts["ideal.builds_modp" if p else "ideal.builds_q"] += 1
                counts["ideal.columns_built"] += len(basis.words)
            return basis

        return _mark(component_basis, fn)

    def _quotient_dimension(self, stem, fn):
        tracer = self
        call = self._call

        def quotient_dimension(n, d, p, delta, limits=None):
            if p:
                return call(stem, fn, (n, d, p, delta, limits), {})
            tracer._lift = False
            tracer._qd_depth += 1
            try:
                q = call(stem, fn, (n, d, p, delta, limits), {})
            finally:
                tracer._qd_depth -= 1
            tracer.counts["ideal.q_lifts" if tracer._lift else "ideal.screen_hits"] += 1
            return q

        return _mark(quotient_dimension, fn)

    def _clear_cache(self, stem, fn):
        tracer = self

        def clear_cache():
            tracer._seen.clear()
            return tracer._call(stem, fn, (), {})

        return _mark(clear_cache, fn)

    def _echelon_add(self, fn):
        tracer = self
        call = self._call

        def add(ech, coeffs):
            grew = call("ideal.add_modp" if ech.p else "ideal.add_q", fn, (ech, coeffs), {})
            counts = tracer.counts
            counts["ideal.rows_offered"] += 1
            if grew:
                counts["ideal.rows_accepted"] += 1
            if tracer._bare_pending:
                tracer._bare_pending = False
                if grew:
                    counts["polarize.bare_accepted"] += 1
            return grew

        return _mark(add, fn)

    def _count_sums(self, fn):
        counts = self.counts

        def __init__(*args, **kwargs):
            counts["formal.sums_built"] += 1
            fn(*args, **kwargs)

        return _mark(__init__, fn)

    # -- install / uninstall ---------------------------------------------

    def _namespaces(self):
        return [self.package] + list(self.modules.values())

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        makers = {
            None: self._plain,
            "span": lambda stem, fn: self._plain(stem, fn, SPAN_NAMES[stem]),
            "generator": self._generator,
            "component_basis": self._component_basis,
            "quotient_dimension": self._quotient_dimension,
            "clear_cache": self._clear_cache,
        }
        for mod, name, stem, kind in FUNCTIONS:
            original = getattr(self.modules[mod], name)
            wrapper = makers[kind](stem, original)
            for ns in self._namespaces():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)
        for mod, cls_name, name, stem, kind in METHODS:
            cls = getattr(self.modules[mod], cls_name)
            original = cls.__dict__[name]
            if kind == "echelon_add":
                wrapper = self._echelon_add(original)
            elif kind == "count_sums":
                wrapper = self._count_sums(original)
            else:
                wrapper = self._plain(stem, original)
            self._patch(cls, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def wrappers_present(self):
        """Sites that hold a benchmark wrapper (empty when uninstalled)."""
        found = []
        for ns in self._namespaces():
            for attr, value in vars(ns).items():
                if getattr(value, "bench_wrapper", False):
                    found.append("%s.%s" % (ns.__name__, attr))
                if isinstance(value, type) and ns.__name__.startswith("nilalg."):
                    for m, v in vars(value).items():
                        if getattr(v, "bench_wrapper", False):
                            found.append("%s.%s.%s" % (ns.__name__, attr, m))
        return found

    # -- results ---------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of everything traced so far."""
        out = {}
        for stem in TIME_STEMS:
            out[stem + "_s"] = self.self_s.get(stem, 0.0)
        for stem in CALL_STEMS:
            out[stem + "_calls"] = self.calls.get(stem, 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        c = self.counts
        offered = c["polarize.bare_offered"]
        out["polarize.bare_accept_ratio"] = (
            c["polarize.bare_accepted"] / offered if offered else 0.0)
        lookups = c["ideal.cache_hits"] + c["ideal.builds_modp"] + c["ideal.builds_q"]
        out["ideal.cache_hit_ratio"] = c["ideal.cache_hits"] / lookups if lookups else 0.0
        return out

    def task_breakdown(self):
        """Per task: name, duration, and self seconds by layer metric."""
        out = []
        for sid, name, t0, t1, parent, task, own in self.spans:
            if task == sid:
                layers = {stem + "_s": s for stem, s in self.task_self[sid].items()}
                layers["bench.self_s"] = own
                out.append({"task": sid, "name": name, "seconds": t1 - t0,
                            "self_s": layers})
        return out

    def span_records(self):
        for sid, name, t0, t1, parent, task, own in self.spans:
            yield {"id": sid, "name": name, "start": t0, "end": t1,
                   "parent": parent, "task": task, "self_s": own}
