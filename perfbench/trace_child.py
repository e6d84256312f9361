"""Run one `momentforge` CLI call with spans around each layer's public
functions, then write the spans and counters as JSON.

Usage: python3 perfbench/trace_child.py OUT.json CLI-ARGS...

`from .finab import f` binds `f` in the importing module too, so every
loaded `momentforge` module that holds a traced function gets the wrapper,
not only the defining one. Methods are wrapped on their class. A target
that cannot be found is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time

# (span name, module, attribute, modules to rebind in: None means every one)
TARGETS = (
    ("finab.extension_class_count", "momentforge.finab", "extension_class_count", None),
    ("finab.sur_count", "momentforge.finab", "sur_count", None),
    ("finab.sur_bruteforce", "momentforge.finab", "sur_bruteforce", None),
    ("finab.aut_bruteforce", "momentforge.finab", "aut_bruteforce", None),
    ("finab.hom_count_bruteforce", "momentforge.finab", "hom_count_bruteforce", None),
    ("finab.kernel_pair_count", "momentforge.finab", "kernel_pair_count", None),
    ("nonab_oracle.sur_a5_bruteforce", "momentforge.nonab_oracle", "sur_a5_bruteforce", None),
    ("surjcount.sur_single", "momentforge.surjcount", "sur_single", None),
    ("qseries.inversion_coefficient", "momentforge.qseries", "inversion_coefficient", None),
    ("inversion.multi_invert_zero", "momentforge.inversion", "multi_invert_zero", None),
    ("localize.localized_moments", "momentforge.localize", "localized_moments", None),
    ("localize.candidate_middles", "momentforge.finab", "candidate_middles",
     ("momentforge.localize",)),
    ("localize.ModuleMomentTable", "momentforge.localize", "ModuleMomentTable.__init__", None),
    ("localize.ModuleMomentTable", "momentforge.localize", "ModuleMomentTable.from_json_obj",
     None),
    ("sampler.sample_cokernel", "momentforge.sampler", "sample_cokernel", None),
    ("sampler.cokernel_partition", "momentforge.sampler", "cokernel_partition", None),
    ("sampler.empirical_moments", "momentforge.sampler", "empirical_moments", None),
    ("budget.check_candidates", "momentforge.budget", "Budget.check_candidates", None),
    ("budget.check_order", "momentforge.budget", "Budget.check_order", None),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# counter name -> (span name, amount taken from the call's arguments); counted
# before the call, so calls that raise count too
ARG_COUNTERS = {
    "budget.candidates": (
        "budget.check_candidates", lambda args, kw: _arg(args, kw, 1, "count")),
    "sampler.support": (
        "sampler.empirical_moments", lambda args, kw: len(_arg(args, kw, 0, "mu"))),
}
# counter name -> (span name, amount taken from the result of a call that returned)
RESULT_COUNTERS = {
    "localize.middles": ("localize.candidate_middles", len),
    "finab.extension_class_count.nonzero": (
        "finab.extension_class_count", lambda result: int(result != 0)),
}
REFUSAL = "BudgetExceededError"  # counted where Budget raises it, not as it propagates


class Tracer:
    """Per-name call counts, inclusive time of outermost spans, self time,
    and which child spans each call made."""

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.counters = {name: 0 for name in (*ARG_COUNTERS, *RESULT_COUNTERS)}
        self.refusals = 0
        self.stack: list[list] = []  # [name, child seconds, child names]
        self.depth: dict[str, int] = {}

    def wrap(self, name: str, fn):
        stat = self.spans.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "with_child": {}}
        )
        arg_hooks = [(c, amount) for c, (span, amount) in ARG_COUNTERS.items() if span == name]
        result_hooks = [
            (c, amount) for c, (span, amount) in RESULT_COUNTERS.items() if span == name
        ]
        counts_refusals = name.startswith("budget.")

        def traced(*args, **kwargs):
            for counter, amount in arg_hooks:
                self.counters[counter] += amount(args, kwargs)
            outer = self.depth.get(name, 0) == 0
            self.depth[name] = self.depth.get(name, 0) + 1
            frame = [name, 0.0, set()]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counts_refusals and type(exc).__name__ == REFUSAL:
                    self.refusals += 1
                raise
            finally:
                took = time.perf_counter() - start
                self.stack.pop()
                self.depth[name] -= 1
                stat["calls"] += 1
                stat["self_s"] += took - frame[1]
                if outer:
                    stat["s"] += took
                for child in frame[2]:
                    stat["with_child"][child] = stat["with_child"].get(child, 0) + 1
                if self.stack:
                    self.stack[-1][1] += took
                    self.stack[-1][2].add(name)
            for counter, amount in result_hooks:
                self.counters[counter] += amount(result)
            return result

        return traced

    def install(self) -> dict[str, str]:
        """Wrap every target; return span name -> "present" or "absent"."""
        import momentforge

        modules = {"momentforge": momentforge}
        for info in pkgutil.iter_modules(momentforge.__path__, "momentforge."):
            try:
                modules[info.name] = importlib.import_module(info.name)
            except ImportError:
                pass
        status: dict[str, str] = {}
        for name, modname, attr, only in TARGETS:
            ok = modname in modules and self._install_one(name, modules, modname, attr, only)
            status[name] = "present" if ok and status.get(name, "present") == "present" else "absent"
        return status

    def _install_one(self, name, modules, modname, attr, only) -> bool:
        owner = modules[modname]
        if "." in attr:  # method on a class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            raw = vars(cls).get(meth) if isinstance(cls, type) else None
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            elif callable(raw):
                setattr(cls, meth, self.wrap(name, raw))
            else:
                return False
            return True
        orig = getattr(owner, attr, None)
        if not callable(orig):
            return False
        wrapped = self.wrap(name, orig)
        for mname, mod in modules.items():
            if only is not None and mname not in only:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
        return True

    def report(self, status: dict[str, str]) -> dict:
        return {
            "status": status,
            "spans": self.spans,
            "counters": {**self.counters, "budget.refusals": self.refusals},
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    status = tracer.install()
    from momentforge import cli

    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.report(status), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
