"""Per-layer spans around the public functions of `qsphere`, installed from
outside the package.

Each wrapped callable is a layer boundary.  A span records its wall time;
its self time is that duration minus the part covered by spans opened
inside it.  Spans are folded into per-name totals as they close, so memory
stays flat however many calls a workload makes.

The wrappers replace every binding of the original object: the defining
module attribute, each `from .x import f` copy in the other modules, and
the `tau` held by the cochain `fodc.TAU`.  Nothing in `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

MODULES = ("scalar", "coordalg", "podles", "uq", "haar", "corep", "fodc", "spectral")

# layer name -> (module, attribute path); a dotted path names a method
LAYERS = {
    "scalar.poly_gcd": ("scalar", "poly_gcd"),
    "scalar.poly_exact_div": ("scalar", "poly_exact_div"),
    "scalar.poly_mul": ("scalar", "LaurentPoly.__mul__"),
    "scalar.evaluate": ("scalar", "evaluate"),
    "coordalg.mono_mul": ("coordalg", "mono_mul"),
    "coordalg.mul": ("coordalg", "CoordElement.__mul__"),
    "podles.embed": ("podles", "embed"),
    "podles.recognize": ("podles", "recognize"),
    "uq.act_left": ("uq", "act_left"),
    "uq.act_right": ("uq", "act_right"),
    "uq.r_action": ("uq", "r_action"),
    "haar.haar": ("haar", "haar"),
    "haar.haar_product": ("haar", "haar_product"),
    "corep.vplus_vminus_basis": ("corep", "vplus_vminus_basis"),
    "corep.mult_matrix": ("corep", "mult_matrix"),
    "fodc.tau": ("fodc", "tau"),
    "fodc.tau_via_volume": ("fodc", "tau_via_volume"),
    "fodc.pair_chain": ("fodc", "pair_chain"),
    "spectral.TruncatedSpace": ("spectral", "TruncatedSpace.__init__"),
    "spectral.build_mult": ("spectral", "build_mult"),
    "spectral.build_J": ("spectral", "build_J"),
    "spectral.haar_trace_check": ("spectral", "haar_trace_check"),
    "spectral.tau_trace_check": ("spectral", "tau_trace_check"),
}


class Tracer:
    """Open-span stack plus per-name call counts and self seconds."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._stack = []  # one [child_seconds] cell per open span

    def wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt

        return span

    def install(self):
        """Replace every binding of each layer callable by its span wrapper."""
        mods = {m: importlib.import_module(f"qsphere.{m}") for m in MODULES}
        for name, (mod, path) in LAYERS.items():
            owner = mods[mod]
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                for key, value in list(owner.__dict__.items()):
                    if value is original:  # e.g. __rmul__ = __mul__
                        setattr(owner, key, wrapped)
                continue
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("qsphere."):
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
        mods["fodc"].TAU.evaluator = mods["fodc"].tau  # now the wrapper

    def metrics(self):
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out
