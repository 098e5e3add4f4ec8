"""Run one `sidediameter` command with spans around the package's public functions.

Usage: python traced_child.py ARGS...   (with the package's `src` on PYTHONPATH)

The command's stdout is unchanged.  Spans are kept in memory and written at
exit as one line `SPANS_MARKER <json>` on stderr, holding
[name, start, end, parent span index or -1, raised] per span plus counters.
"""

import functools
import inspect
import json
import sys
import time

SPANS_MARKER = "@@spans "
# Public functions reported under a shared or shorter name.
RENAMES = {
    "approx.babylonian_step": "approx.step",
    "approx.sd_ratio_step": "approx.step",
    "identities.verify_identity": "identities.verify",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {"approx.isqrt.calls": 0, "approx.isqrt.bits": 0, "pairs.generate.pairs": 0}

    def span(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, False]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def count_isqrt(self, func):
        # Called ~48 times per table row: a counter, not a span.
        @functools.wraps(func)
        def wrapper(n):
            self.counters["approx.isqrt.calls"] += 1
            self.counters["approx.isqrt.bits"] += n.bit_length()
            return func(n)
        return wrapper

    def count_pairs(self, func):
        @functools.wraps(func)
        def wrapper(count):
            table = func(count)
            self.counters["pairs.generate.pairs"] += len(table)
            return table
        return wrapper

    def install(self):
        from sidediameter import approx, cli, identities, pairs  # here, so the benchmark can import SPANS_MARKER

        for module in (pairs, approx, identities, cli):
            layer = module.__name__.rpartition(".")[2]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                full = f"{layer}.{name}"
                if full == "approx.isqrt":
                    wrapped = self.count_isqrt(obj)
                elif full == "pairs.generate":
                    wrapped = self.span(full, self.count_pairs(obj))
                else:
                    wrapped = self.span(RENAMES.get(full, full), obj)
                setattr(module, name, wrapped)
        # run_method looks its step functions up in a table filled at import.
        for method, func in approx._METHOD_STEPS.items():
            approx._METHOD_STEPS[method] = getattr(approx, func.__name__)
        pair = pairs.SideDiameterPair
        pair.__post_init__ = self.span("pairs.check", pair.__post_init__)
        pair.sign = property(self.span("pairs.sign", pair.sign.fget))
        trace = identities.DerivationTrace
        trace.to_json_dict = self.span("identities.render", trace.to_json_dict)
        trace.pretty = self.span("identities.render", trace.pretty)

    def report(self) -> str:
        return SPANS_MARKER + json.dumps({"spans": self.spans, "counters": self.counters})


def main(argv):
    tracer = Tracer()
    tracer.install()
    from sidediameter import cli

    try:
        code = cli.run(argv)
    finally:
        sys.stdout.flush()
        print(tracer.report(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
