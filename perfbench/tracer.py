"""Per-layer tracing from outside the program.

While installed, the tracer replaces the public functions of each hppk
module with wrappers that record a span (name, start, end, parent, op)
per call.  Every name bound to the same function object in any hppk
module is replaced too, so `block.mod_inverse`, `kem.mod_inverse` and
`analysis.mod_inverse` are timed as well as `modmath.mod_inverse`.  RNG
draws are counted through a DeterministicStream subclass bound in place
of the class, so the retries inside `below` show up as `bits` calls.

A span's self time is its duration minus its direct children's.  The op
span wraps one workload op; its self time is the part of the op that no
program layer covers (harness glue and calls to unlisted code).
"""

import contextlib
import functools
import importlib
import json
import time

LAYERS = ("rng", "modmath", "fhe", "block", "kem", "kat", "cli", "analysis")

# Public entry points timed per module.  xgcd, legendre and crc8 are the
# inner loops of mod_inverse, sqrt_mod and the CRC flag, and are timed as
# part of their caller.
TIMED = {
    "modmath": ("ensure_wide", "mod_inverse", "is_prime_64", "sqrt_mod",
                "solve_linear", "solve_quadratic"),
    "fhe": ("ring_gen", "he_keygen", "encrypt_value", "encrypt_coeffs",
            "eval_cipher_poly", "decrypt_value"),
    "block": ("keygen", "keypair_from_values", "build_plain_central_map",
              "monomial_table", "encrypt_block", "decrypt_block",
              "format_plaintext", "verify_flag"),
    "kem": ("encaps", "decaps", "serialize_pk", "serialize_sk", "serialize_ct",
            "deserialize_pk", "deserialize_sk", "deserialize_ct"),
    "kat": ("toy_vector", "record_from_seed", "generate_suite", "write_suite",
            "parse_suite", "verify_record", "verify_suite"),
    "cli": ("main",),
    "analysis": ("random_ring_instance", "ring_key_search"),
}

OP = "op"
SETUP = -1  # op id of spans recorded while the workload sets up

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.rng_bytes = {}  # op id -> bytes taken from the stream
        self.op = None  # spans are kept only while this is not None
        self._stack = []
        self._patches = []  # (module, attribute, original)

    # -- recording

    def call(self, name, fn, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        span[_START] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter_ns()
            self._stack.pop()

    def begin_op(self, op):
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([OP, time.perf_counter_ns(), 0, -1, op])

    def end_op(self):
        self.spans[self._stack.pop()][_END] = time.perf_counter_ns()
        self.op = None

    # -- installing

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _counting_stream(self, base):
        tracer = self

        class CountingStream(base):
            def take_bytes(self, n):
                if tracer.op is not None:
                    tracer.rng_bytes[tracer.op] = tracer.rng_bytes.get(tracer.op, 0) + n
                return tracer.call("rng.take_bytes", super().take_bytes, (n,), {})

            def bits(self, k):
                return tracer.call("rng.bits", super().bits, (k,), {})

            def below(self, n):
                return tracer.call("rng.below", super().below, (n,), {})

        return CountingStream

    def install(self):
        modules = [importlib.import_module("hppk")] + [
            importlib.import_module(f"hppk.{layer}") for layer in LAYERS
        ]
        replacements = {}
        for layer, names in TIMED.items():
            home = importlib.import_module(f"hppk.{layer}")
            for name in names:
                fn = getattr(home, name)
                replacements[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        stream = importlib.import_module("hppk.rng").DeterministicStream
        replacements[id(stream)] = (stream, self._counting_stream(stream))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @property
    def patches(self):
        return list(self._patches)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, setup_items):
    """Per-layer metrics over the traced ops, plus setup self time per layer.

    random_ring_instance runs only in setup, one call per ring-search op;
    its time is divided by setup_items, the number of items one setup
    builds, to give a per-op figure.
    """
    spans = tracer.spans
    self_ns, calls, pairs, setup_ns = {}, {}, {}, {}
    n_ops = op_ns = 0
    for span, own in zip(spans, tracer.self_times()):
        name, start, end, parent, op = span
        if op == SETUP:
            setup_ns[name] = setup_ns.get(name, 0) + own
            continue
        if name == OP:
            n_ops += 1
            op_ns += end - start
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        key = (name, spans[parent][_NAME] if parent >= 0 else None)
        pairs[key] = pairs.get(key, 0) + 1

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def us(*names):
        return per_op(sum(self_ns.get(n, 0) for n in names)) / 1000

    def ratio(a, b):
        return a / b if b else 0.0

    rng_top = sum(
        n for (name, parent), n in pairs.items()
        if name.startswith("rng.") and not (parent or "").startswith("rng.")
    )
    m = {
        "rng.calls_per_op": per_op(rng_top),
        "rng.bytes_per_op": per_op(
            sum(v for k, v in tracer.rng_bytes.items() if k != SETUP)
        ),
        "rng.below_draws_per_call": ratio(
            pairs.get(("rng.bits", "rng.below"), 0),
            calls.get("rng.below", 0),
        ),
        "rng.self_us_per_op": us("rng.take_bytes", "rng.bits", "rng.below"),
        "modmath.mod_inverse.calls_per_op": per_op(calls.get("modmath.mod_inverse", 0)),
        "modmath.mod_inverse.self_us_per_op": us("modmath.mod_inverse"),
        "modmath.solve.self_us_per_op": us("modmath.solve_linear", "modmath.solve_quadratic"),
        "modmath.sqrt_mod.self_us_per_op": us("modmath.sqrt_mod"),
        "fhe.ring_gen.self_us_per_op": us("fhe.ring_gen"),
        "fhe.he_keygen.self_us_per_op": us("fhe.he_keygen"),
        "fhe.he_keygen.draws_per_call": ratio(
            pairs.get(("rng.below", "fhe.he_keygen"), 0),
            calls.get("fhe.he_keygen", 0),
        ),
        "fhe.encrypt_value.calls_per_op": per_op(calls.get("fhe.encrypt_value", 0)),
        "fhe.encrypt_value.self_us_per_op": us("fhe.encrypt_value"),
    }
    for name in ("keygen", "build_plain_central_map", "monomial_table",
                 "encrypt_block", "decrypt_block", "format_plaintext", "verify_flag"):
        m[f"block.{name}.self_us_per_op"] = us(f"block.{name}")
    m["kem.encaps.self_us_per_op"] = us("kem.encaps")
    m["kem.decaps.self_us_per_op"] = us("kem.decaps")
    m["kem.serialize.self_us_per_op"] = us(
        "kem.serialize_pk", "kem.serialize_sk", "kem.serialize_ct")
    m["kem.deserialize.self_us_per_op"] = us(
        "kem.deserialize_pk", "kem.deserialize_sk", "kem.deserialize_ct")
    m["kat.parse_suite.self_us_per_op"] = us("kat.parse_suite")
    m["kat.verify_record.self_us_per_op"] = us("kat.verify_record")
    m["cli.main.self_us_per_op"] = us("cli.main")
    m["analysis.random_ring_instance.self_us_per_op"] = (
        ratio(setup_ns.get("analysis.random_ring_instance", 0), setup_items) / 1000
    )
    m["analysis.ring_key_search.self_us_per_op"] = us("analysis.ring_key_search")
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        m[f"{layer}.share"] = ratio(layer_ns, op_ns)
    m["untraced.self_us_per_op"] = us(OP)
    m["trace.op_us_per_op"] = per_op(op_ns) / 1000
    for name, ns in setup_ns.items():
        key = f"setup.{name.split('.')[0]}.self_us"
        m[key] = m.get(key, 0.0) + ns / 1000
    return m
