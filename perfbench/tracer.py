"""In-memory span tracer that wraps togglekit's public functions from outside.

Nothing in the library changes.  install() replaces every binding of each
traced function: the attribute in its defining module, every
`from .x import f` copy in other togglekit modules, and function objects
held in module-level dicts, lists and tuples (homomesy._MAPS,
verify._IDEAL_MAPS, verify._ARRAY_MAPS); uninstall() puts the originals
back.  posets calls kernels through the module object that kernel_for()
returns, so the kernel functions are replaced as attributes of that
module.  After replacing, install() asks the garbage collector for every
remaining referrer of each original function and reports any that is
not one of the tracer's own wrappers.

A span is (bucket, start, end, parent span, op id).  Spans live in flat
arrays that are cleared at the start of each op, so memory holds one op's
spans.  A bucket's self time is the time its spans cover minus the time
their child spans cover, so the self times of all buckets add up to the
root span, which is the op itself.
"""

import gc
import importlib
import sys
import time
from array import array

# The op's own span; its self time is the residual no layer claims.
ROOT = "verify"

# Buckets picked per call from the algebra argument of a dynamics sweep.
PL_SWEEP = "dynamics.pl.sweep"
BIRATIONAL_SWEEP = "dynamics.birational.sweep"


def _bits(tracer, f):
    extra = tracer.extra
    for v in f.values:
        extra["rational.max_num_bits"] = max(
            extra["rational.max_num_bits"], v.numerator.bit_length()
        )
        extra["rational.max_den_bits"] = max(
            extra["rational.max_den_bits"], v.denominator.bit_length()
        )


def _observe_sweep(tracer, args, result):
    tracer.extra["dynamics.toggles"] += len(result.values)
    if args[0].positive_domain:
        _bits(tracer, result)


def _observe_toggle(tracer, args, result):
    tracer.extra["dynamics.toggles"] += 1
    if args[0].positive_domain:
        _bits(tracer, result)


def _observe_file_toggle(tracer, args, result):
    alg, f, index = args
    tracer.extra["dynamics.toggles"] += len(f.poset.file_members(index))
    if alg.positive_domain:
        _bits(tracer, result)


def _observe_orbit(tracer, args, result):
    tracer.extra["orbits.states"] += result.period
    tracer.periods[result.period] = tracer.periods.get(result.period, 0) + 1


_SWEEP = (None, _observe_sweep)

# (module, function) -> (bucket, observer).  A bucket of None means the
# sweep bucket of the algebra passed as the first argument.
TARGETS = {
    ("togglekit.kernels.pybitops", "sweep"): ("kernels.sweep", None),
    ("togglekit.kernels.pybitops", "toggle"): ("kernels.toggle", None),
    ("togglekit.kernels.pybitops", "enumerate_ideals"): ("kernels.enumerate", None),
    ("togglekit.kernels._bitops", "sweep"): ("kernels.sweep", None),
    ("togglekit.kernels._bitops", "toggle"): ("kernels.toggle", None),
    ("togglekit.kernels._bitops", "enumerate_ideals"): ("kernels.enumerate", None),
    ("togglekit.posets", "rowmotion_ideal"): ("posets.ideal_step", None),
    ("togglekit.posets", "promotion_ideal"): ("posets.ideal_step", None),
    ("togglekit.posets", "file_toggle_ideal"): ("posets.ideal_step", None),
    ("togglekit.posets", "toggle_ideal"): ("posets.ideal_step", None),
    ("togglekit.posets", "enumerate_ideals"): ("posets.enumerate", None),
    ("togglekit.posets", "enumerate_ideal_masks"): ("posets.enumerate", None),
    ("togglekit.dynamics", "rowmotion"): _SWEEP,
    ("togglekit.dynamics", "rowmotion_inverse"): _SWEEP,
    ("togglekit.dynamics", "promotion"): _SWEEP,
    ("togglekit.dynamics", "promotion_inverse"): _SWEEP,
    ("togglekit.dynamics", "toggle"): ("dynamics.toggle", _observe_toggle),
    ("togglekit.dynamics", "file_toggle"): ("dynamics.toggle", _observe_file_toggle),
    ("togglekit.orbits", "orbit"): ("orbits.walk", _observe_orbit),
    ("togglekit.homomesy", "orbit_statistic"): ("homomesy.statistics", None),
    ("togglekit.homomesy", "orbit_statistics"): ("homomesy.statistics", None),
    ("togglekit.homomesy", "homomesy_check"): ("homomesy.statistics", None),
    ("togglekit.homomesy", "orbit_average_vector"): ("homomesy.average_vector", None),
    ("togglekit.homomesy", "homomesy_space_rank"): ("homomesy.rank", None),
    ("togglekit.homomesy", "exact_rank"): ("homomesy.rank", None),
    ("togglekit.birational", "recombine"): ("birational.shear", None),
    ("togglekit.birational", "recombine_inverse"): ("birational.shear", None),
    ("togglekit.birational", "reciprocity_check"): ("birational.reciprocity", None),
    ("togglekit.birational", "rowmotion_iterates"): ("birational.reciprocity", None),
    ("togglekit.birational", "quotient_sequence"): ("birational.quotient", None),
    ("togglekit.birational", "file_toggle_swap_check"): ("birational.quotient", None),
    ("togglekit.birational", "promotion_shift_check"): ("birational.quotient", None),
    ("togglekit.polytopes", "three_step"): ("polytopes.three_step", None),
    ("togglekit.tableaux", "tableau_promotion"): ("tableaux.promotion", None),
    ("togglekit.tableaux", "bender_knuth"): ("tableaux.bender_knuth", None),
    ("togglekit.tableaux", "tableau_to_array"): ("tableaux.embed", None),
    ("togglekit.tableaux", "tableau_to_pattern"): ("tableaux.embed", None),
    ("togglekit.tableaux", "pattern_to_array"): ("tableaux.embed", None),
    ("togglekit.serialize", "dumps_canonical"): ("serialize.dumps", None),
    ("togglekit.sampling", "random_polytope_point"): ("sampling.draw", None),
    ("togglekit.sampling", "random_positive_array"): ("sampling.draw", None),
    ("togglekit.sampling", "random_tableau"): ("sampling.draw", None),
    ("togglekit.sampling", "random_linear_extension"): ("sampling.draw", None),
}

# Counters kept beside the spans, filled by the observers.
EXTRA = ("dynamics.toggles", "orbits.states", "rational.max_num_bits",
         "rational.max_den_bits")


class Tracer:
    'Span recorder: install() wraps the targets, run() traces one op.'

    def __init__(self):
        self.buckets = [ROOT]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = 0
        self.extra = dict.fromkeys(EXTRA, 0)
        self.periods = {}
        self._wrappers = {}  # id(original) -> wrapper
        self._originals = {}  # id(wrapper) -> original
        self.unwrapped = []

    def bucket(self, name):
        if name not in self.buckets:
            self.buckets.append(name)
        return self.buckets.index(name)

    def _wrap(self, fn, bucket, observe):
        name_add, start_add, end_add = self.name.append, self.start.append, self.end.append
        parent_add, op_add = self.parent.append, self.op.append
        end, stack, push, pop = self.end, self.stack, self.stack.append, self.stack.pop
        clock = time.perf_counter
        tracer = self
        fixed = None if bucket is None else self.bucket(bucket)
        pl, bir = self.bucket(PL_SWEEP), self.bucket(BIRATIONAL_SWEEP)

        def traced(*args, **kwargs):
            i = len(end)
            if fixed is not None:
                name_add(fixed)
            else:
                name_add(bir if args[0].positive_domain else pl)
            parent_add(stack[-1])
            op_add(tracer.op_id)
            end_add(0.0)
            push(i)
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self):
        """Swap every binding of every target for its wrapper.

        Returns the bindings left unwrapped, as (module, function, type of
        the object still holding the original) triples: empty when every
        reference to an original function is one of the tracer's wrappers.
        The garbage-collector scan that finds them runs on the first call.
        """
        if self._wrappers:
            _swap_bindings(self._wrappers)
            return self.unwrapped
        for (module_name, attr), (bucket, observe) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue  # the compiled kernel is optional
            fn = getattr(module, attr)
            wrapper = self._wrap(fn, bucket, observe)
            self._wrappers[id(fn)] = wrapper
            self._originals[id(wrapper)] = fn
        del fn
        _swap_bindings(self._wrappers)
        own_cells = {id(c) for w in self._wrappers.values() for c in w.__closure__}
        gc.collect()
        self.unwrapped = [
            (fn.__module__, fn.__name__, type(ref).__name__)
            for fn in self._originals.values()
            for ref in gc.get_referrers(fn)
            if id(ref) not in own_cells and ref is not self._originals
        ]
        return self.unwrapped

    def uninstall(self):
        'Put the original functions back into every binding.'
        _swap_bindings(self._originals)

    def run(self, fn, *args):
        'Trace one call of fn as the root span of a new op; returns (result, wall).'
        self.op_id += 1
        for column in (self.name, self.start, self.end, self.parent, self.op):
            del column[:]
        self.extra = dict.fromkeys(EXTRA, 0)
        self.periods = {}
        root = self._wrap(fn, ROOT, None)
        t0 = time.perf_counter()
        result = root(*args)
        return result, time.perf_counter() - t0

    def summary(self):
        """Span counts and self times per bucket for the current op.

        Returns {"counts", "self_s", "extra", "periods"}.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for p, d in zip(self.parent, dur):
            if p >= 0:
                child[p] += d
        counts = [0] * len(self.buckets)
        self_s = [0.0] * len(self.buckets)
        for b, d, c in zip(self.name, dur, child):
            counts[b] += 1
            self_s[b] += d - c
        return {
            "counts": dict(zip(self.buckets, counts)),
            "self_s": dict(zip(self.buckets, self_s)),
            "extra": dict(self.extra),
            "periods": {str(k): v for k, v in sorted(self.periods.items())},
        }

    def write_spans(self, path):
        """Write the current op spans as five columns, one after another.

        n int32 buckets, n float64 starts, n float64 ends, n int32 parent
        span indices (-1 for the root) and n int32 op ids, in native byte
        order; n is the file size divided by 28.
        """
        with open(path, "wb") as handle:
            for column in (self.name, self.start, self.end, self.parent, self.op):
                column.tofile(handle)


def _togglekit_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "togglekit" or name.startswith("togglekit."))
    ]


def _swap_bindings(mapping):
    'Replace every binding of a function keyed in mapping, in every togglekit module.'
    for module in _togglekit_modules():
        for attr, value in list(vars(module).items()):
            if not attr.startswith("__"):
                new = _replace(value, mapping)
                if new is not value:
                    setattr(module, attr, new)


def _replace(value, mapping):
    'Swap each function keyed in mapping by id: dicts and lists in place, tuples by copy.'
    if id(value) in mapping:
        return mapping[id(value)]
    if isinstance(value, dict):
        for key, item in list(value.items()):
            value[key] = _replace(item, mapping)
    elif isinstance(value, list):
        value[:] = [_replace(item, mapping) for item in value]
    elif isinstance(value, tuple):
        items = tuple(_replace(item, mapping) for item in value)
        if any(new is not old for new, old in zip(items, value)):
            return items
    return value
