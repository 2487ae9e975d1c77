"""Spans around the public functions of `cyclicsource`, recorded from
outside the package, and the per-layer metrics computed from them.

`Tracer.install` replaces each traced function at every module attribute
that is bound to it (so `cli.analyze` is wrapped together with
`blocks.analyze`) and in `verify.SUITES`.  The private `lru_cache`
functions are left alone, so a cache hit shows as a missing child span.

A span is (name, start, end, parent); spans are kept in flat arrays and
written out with `Tracer.dump` when the run ends.  Nested spans of one name
(or of one layer, for the `modules.s` and `dade.s` totals) count once.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

# (span name, module, attribute): the public functions traced
TRACED = (
    ("oracle.column_space", "oracle", "column_space"),
    ("oracle.rank_profile", "oracle", "rank_profile"),
    ("oracle.matmul_mod", "oracle", "matmul_mod"),
    ("oracle.jordan_type", "oracle", "jordan_type"),
    ("oracle.tensor_decompose", "oracle", "tensor_decompose"),
    ("oracle.is_endo_permutation", "oracle", "is_endo_permutation"),
    ("oracle.relative_heller_oracle", "oracle", "relative_heller_oracle"),
    ("oracle.restrict_oracle", "oracle", "restrict_oracle"),
    ("oracle.induce_oracle", "oracle", "induce_oracle"),
    ("modules.heller", "modules", "heller"),
    ("modules.relative_heller", "modules", "relative_heller"),
    ("modules.restrict", "modules", "restrict"),
    ("modules.induce", "modules", "induce"),
    ("modules.vertex", "modules", "vertex"),
    ("modules.is_permutation", "modules", "is_permutation"),
    ("dade.dade_zero", "dade", "dade_zero"),
    ("dade.dade_add", "dade", "dade_add"),
    ("dade.w_module", "dade", "w_module"),
    ("dade.w_module_sum", "dade", "w_module_sum"),
    ("dade.element_from_jordan", "dade", "element_from_jordan"),
    ("dade.lift_character", "dade", "lift_character"),
    ("dade.psi", "dade", "psi"),
    ("dade.psi_inverse", "dade", "psi_inverse"),
    ("blocks.analyze", "blocks", "analyze"),
    ("descriptors.parse_descriptor", "descriptors", "parse_descriptor"),
    ("groups.is_prime", "groups", "is_prime"),
    ("trees.validate", "trees", "validate"),
    ("trees.canonical_code", "trees", "canonical_code"),
    ("trees.canonical_planar_code", "trees", "canonical_planar_code"),
    ("cli.main", "cli", "main"),
)
SUITES = ("dade-law", "classification", "characters", "relative-heller",
          "restriction", "operator-composition", "induction")
MODULES = ("blocks", "cli", "dade", "descriptors", "groups", "modules",
           "oracle", "trees", "verify")

# Every per-layer metric with its unit, in report order.
METRICS = (
    ("oracle.column_space.calls", "count"),
    ("oracle.column_space.cells", "count"),
    ("oracle.column_space.self_s", "s"),
    ("oracle.rank_profile.calls", "count"),
    ("oracle.rank_profile.self_s", "s"),
    ("oracle.matmul_mod.calls", "count"),
    ("oracle.matmul_mod.self_s", "s"),
    ("oracle.jordan_type.calls", "count"),
    ("oracle.jordan_type.s", "s"),
    ("oracle.jordan_type.dim_max", "count"),
    ("oracle.tensor_decompose.s", "s"),
    ("oracle.is_endo_permutation.s", "s"),
    ("oracle.relative_heller_oracle.calls", "count"),
    ("oracle.relative_heller_oracle.s", "s"),
    ("oracle.restrict_oracle.s", "s"),
    ("oracle.induce_oracle.s", "s"),
    *((f"verify.{suite}.s", "s") for suite in SUITES),
    ("verify.cases", "count"),
    ("verify.skipped", "count"),
    ("modules.s", "s"),
    ("dade.w_module.calls", "count"),
    ("dade.s", "s"),
    ("blocks.analyze.calls", "count"),
    ("blocks.analyze.s", "s"),
    ("descriptors.parse_descriptor.s", "s"),
    ("descriptors.parse_descriptor.mb", "MB"),
    ("groups.is_prime.calls", "count"),
    ("groups.is_prime.s", "s"),
    ("trees.validate.s", "s"),
    ("trees.canonical_code.s", "s"),
    ("trees.canonical_planar_code.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.out.mb", "MB"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # measured from arguments and results, at the same boundaries
        self.counters = {"oracle.column_space.cells": 0,
                         "oracle.jordan_type.dim_max": 0,
                         "descriptors.parse_descriptor.mb": 0.0,
                         "verify.cases": 0, "verify.skipped": 0}

    def wrap(self, span: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(span)
        clock = time.perf_counter
        stack = self._stack
        name, parent, start, end = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self, package) -> None:
        """Wrap every function of TRACED and every verify suite, at every
        binding in the package's modules."""
        mods = [package] + [getattr(package, m) for m in MODULES]
        c = self.counters

        def cells(args):
            m, n = args[0].shape
            c["oracle.column_space.cells"] += m * n

        def dim(args):
            c["oracle.jordan_type.dim_max"] = max(
                c["oracle.jordan_type.dim_max"], args[0].dim)

        def text(args):
            c["descriptors.parse_descriptor.mb"] += len(args[0]) / 1e6

        def suite_done(result):
            c["verify.cases"] += result.cases
            c["verify.skipped"] += result.skipped

        hooks = {"oracle.column_space": (cells, None),
                 "oracle.jordan_type": (dim, None),
                 "descriptors.parse_descriptor": (text, None)}
        targets = [(span, getattr(getattr(package, mod), attr), hooks.get(span))
                   for span, mod, attr in TRACED]
        suites = package.verify.SUITES
        targets += [(f"verify.{s}", suites[s], (None, suite_done))
                    for s in SUITES]
        for span, fn, hook in targets:
            wrapped = self.wrap(span, fn, *(hook or (None, None)))
            bound = 0
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        bound += 1
            for key, value in list(suites.items()):
                if value is fn:
                    suites[key] = wrapped
                    bound += 1
            if not bound:
                raise RuntimeError(f"{span}: no binding found")

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and the four columns as raw
        arrays (int32 name, int32 parent, float64 start, float64 end)."""
        header = {"names": self.names, "count": len(self.start),
                  "counters": self.counters}
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)


def load(path: Path):
    header = json.loads(path.with_suffix(".json").read_text())
    n = header["count"]
    columns = []
    with open(path.with_suffix(".bin"), "rb") as src:
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(src, n)
            columns.append(column)
    return header, columns


def layer_metrics(path: Path, out_mb: float, overhead_s: float):
    """Per-layer metrics of one traced round, from its span file, and the
    span count of every traced name."""
    header, (name, parent, start, end) = load(path)
    names = header["names"]
    layer_of = [n.split(".")[0] for n in names]
    n = len(start)
    calls = [0] * len(names)
    total = [0.0] * len(names)    # outermost spans of each name
    child = [0.0] * n             # time covered by direct children
    self_s = [0.0] * len(names)
    layer_total: dict[str, float] = {}
    # the names of a span's ancestors as a bit set and their layers as a
    # set; a parent is recorded before its children
    anc_names = [0] * n
    anc_layers: list[frozenset] = [frozenset()] * n
    for i in range(n):
        nid, par = name[i], parent[i]
        dur = end[i] - start[i]
        calls[nid] += 1
        if par >= 0:
            child[par] += dur
            anc_names[i] = anc_names[par] | (1 << name[par])
            anc_layers[i] = anc_layers[par] | {layer_of[name[par]]}
        if not anc_names[i] >> nid & 1:
            total[nid] += dur
        layer = layer_of[nid]
        if layer not in anc_layers[i]:
            layer_total[layer] = layer_total.get(layer, 0.0) + dur
    for i in range(n):
        self_s[name[i]] += end[i] - start[i] - child[i]

    index = {s: k for k, s in enumerate(names)}
    values = dict(header["counters"])
    for metric, _ in METRICS:
        if metric in values:
            continue
        base, _, kind = metric.rpartition(".")
        k = index.get(base)
        if kind == "calls":
            values[metric] = calls[k]
        elif kind == "self_s":
            values[metric] = self_s[k]
        elif base in ("modules", "dade"):
            values[metric] = layer_total.get(base, 0.0)
        elif kind == "s":
            values[metric] = total[k]
    values["cli.out.mb"] = out_mb
    values["trace.overhead_s"] = overhead_s
    return values, {s: calls[k] for k, s in enumerate(names)}
