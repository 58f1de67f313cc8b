"""Per-layer spans and counters for blockposets, recorded from outside it.

`Tracer.install()` wraps the public functions and methods of each layer
module at run time. It patches every namespace that bound them: module
globals (``verify`` imports ``block_geometry`` and ``homology`` by name),
module-level dicts (``verify.CHECKS_BY_NAME``) and default arguments
(``topology.homology`` binds ``snf=smith_normal_form``). The library source
is not edited.

A span is one call of a wrapped callable: name, start, end, parent span,
target index and optional sizes. Spans stay in memory until `write()`, which
emits them as JSON lines. `per_layer_metrics()` turns such a file back into
the benchmark's per-layer metrics. Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("perms", "gf", "blocks", "brauer", "commuting", "topology",
          "fusion", "verify", "cli")

# Value types whose methods run millions of times per workload (profiled on
# S6 at p=5: 16M Permutation products, 16M field products). A span on each
# call would cost more than the work it measures, so they get no spans; the
# two products below are counted instead.
UNSPANNED_CLASSES = frozenset({
    "perms.Permutation", "gf.PrimeField", "gf.ExtensionField",
    "fusion.FusionMorphism",
})
UNSPANNED = frozenset({"topology.Poset.leq"})
COUNTED = {
    "perms.Permutation.__mul__": "perms.mul.calls",
    "gf.PrimeField.mul": "gf.mul.calls",
    "gf.ExtensionField.mul": "gf.mul.calls",
}

# Sizes read off a span's operands or result once the call returns.
SIZES = {
    "blocks.GroupAlgebraElement.__mul__":
        lambda args, out: {"terms": len(args[0].support) * len(args[1].support)},
    "blocks.class_sum_algebra": lambda args, out: {"dim": out.dim},
    "commuting.block_geometry":
        lambda args, out: {"apairs": out.aposet.n, "kelements": out.kposet.n},
    "topology.order_complex":
        lambda args, out: {"simplices": out.num_simplices()},
    "topology.boundary_matrices":
        lambda args, out: {"nnz": sum(len(m) for m in out)},
    "fusion.CommutingCategory.__init__":
        lambda args, out: {"objects": len(args[0].objects)},
}

# Each verify entry builds its group once, so this span starts a new target.
TARGET_SPAN = "cli.build_group"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, target, sizes]
        self.stack = []
        self.target = -1
        self.cells = {}          # counter name -> one-element list
        self.origin = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        size_fn = SIZES.get(name)
        new_target = name == TARGET_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_target:
                self.target += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.target,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size_fn is not None:
                rec[5] = size_fn(args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        cell = self.cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _wrap(self, qualname, fn):
        if qualname in COUNTED:
            return self._counter(COUNTED[qualname], fn)
        return self._span(qualname, fn)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer module of the already imported package."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "blockposets" or name.startswith("blockposets.")]
        replaced = {}                       # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules["blockposets." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod in mods:
            _patch_namespace(vars(mod), replaced)
        return self

    def _install_class(self, layer, cls):
        cname = f"{layer}.{cls.__name__}"
        for attr, member in list(vars(cls).items()):
            qual = f"{cname}.{attr}"
            if attr.startswith("_") and attr not in ("__init__", "__mul__"):
                continue
            if qual not in COUNTED and (cname in UNSPANNED_CLASSES
                                        or qual in UNSPANNED):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(qual, member.__func__))
            elif inspect.isfunction(member) \
                    and not inspect.isgeneratorfunction(member):
                wrapped = self._wrap(qual, member)
            else:
                continue                    # properties, class constants
            setattr(cls, attr, wrapped)

    # -- output -----------------------------------------------------------

    def write(self, path):
        """JSON lines: one per span, then one with the counters."""
        t0 = self.origin
        with open(path, "w") as fh:
            for name, start, end, parent, target, sizes in self.spans:
                rec = {"name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "target": target}
                if sizes:
                    rec["size"] = sizes
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps(
                {"counts": {k: c[0] for k, c in sorted(self.cells.items())}})
                + "\n")


def _patch_namespace(ns, replaced):
    """Swap originals for wrappers in a namespace, its dicts and defaults."""
    for key, value in list(ns.items()):
        if id(value) in replaced:
            ns[key] = replaced[id(value)]
        elif isinstance(value, dict) and key != "__builtins__":
            for k, v in list(value.items()):
                if id(v) in replaced:
                    value[k] = replaced[id(v)]
        members = vars(value).values() if inspect.isclass(value) else ()
        for fn in (value, *members):
            _patch_defaults(getattr(fn, "__func__", fn), replaced)


def _patch_defaults(fn, replaced):
    if not inspect.isfunction(fn):
        return
    fn = inspect.unwrap(fn)
    if fn.__defaults__ and any(id(d) in replaced for d in fn.__defaults__):
        fn.__defaults__ = tuple(replaced.get(id(d), d)
                                for d in fn.__defaults__)


# ---------------------------------------------------------------------------
# metrics from a trace file


def read_trace(path):
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append(rec)
    return spans, counts


def per_layer_metrics(spans, counts):
    """{metric: (value, unit)} for one traced run of a workload."""
    dur = [s["end"] - s["start"] for s in spans]
    names = [s["name"] for s in spans]
    parent = [s["parent"] for s in spans]
    child_time = [0.0] * len(spans)
    child_time_by_layer = defaultdict(float)       # (parent, layer) -> s
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]
            child_time_by_layer[p, names[i].split(".", 1)[0]] += dur[i]

    def total(*wanted):
        """Time in the named spans, counting nested repeats once."""
        wanted = set(wanted)
        out = 0.0
        for i, name in enumerate(names):
            if name not in wanted:
                continue
            p = parent[i]
            while p >= 0 and names[p] not in wanted:
                p = parent[p]
            if p < 0:
                out += dur[i]
        return out

    def calls(name):
        return sum(1 for n in names if n == name)

    def size(name, key):
        return sum(s["size"][key] for s in spans
                   if s["name"] == name and "size" in s)

    def self_time(name, layers=None):
        out = 0.0
        for i, n in enumerate(names):
            if n == name:
                covered = child_time[i] if layers is None else sum(
                    child_time_by_layer[i, layer] for layer in layers)
                out += dur[i] - covered
        return out

    layer_self = defaultdict(float)
    for i, n in enumerate(names):
        layer_self[n.split(".", 1)[0]] += dur[i] - child_time[i]

    site_calls = calls("brauer.BlockContext.site")
    site_computed = len({parent[i] for i, n in enumerate(names)
                         if n == "perms.centralizer" and parent[i] >= 0
                         and names[parent[i]] == "brauer.BlockContext.site"})
    group_builders = sum(dur[i] for i, n in enumerate(names)
                         if n.startswith("perms.") and parent[i] >= 0
                         and names[parent[i]] == TARGET_SPAN)
    target_dims = sum(s["size"]["dim"] for s in spans
                      if s["name"] == "blocks.class_sum_algebra"
                      and s["parent"] >= 0
                      and names[s["parent"]].startswith("cli."))

    m = {
        "perms.group_s": (group_builders, "s"),
        "perms.subgroup_classes_s":
            (total("perms.p_subgroups_up_to_conjugacy"), "s"),
        "perms.centralizer_s": (total("perms.centralizer"), "s"),
        "perms.centralizer.calls": (calls("perms.centralizer"), "count"),
        "perms.orbit_transversal_s":
            (total("perms.subgroup_orbit_transversal"), "s"),
        "perms.mul.calls": (counts.get("perms.mul.calls", 0), "count"),
        "gf.mul.calls": (counts.get("gf.mul.calls", 0), "count"),
        "blocks.class_algebra_s": (total("blocks.class_sum_algebra"), "s"),
        "blocks.dim": (target_dims, "count"),
        "blocks.split_s": (total("blocks.primitive_idempotents"), "s"),
        "blocks.split.calls": (calls("blocks.primitive_idempotents"), "count"),
        "blocks.algebra_mul_s":
            (total("blocks.GroupAlgebraElement.__mul__"), "s"),
        "blocks.algebra_mul.calls":
            (calls("blocks.GroupAlgebraElement.__mul__"), "count"),
        "blocks.algebra_mul.terms":
            (size("blocks.GroupAlgebraElement.__mul__", "terms"), "count"),
        "brauer.contexts": (calls("brauer.BlockContext.__init__"), "count"),
        "brauer.site.calls": (site_calls, "count"),
        "brauer.site.computed": (site_computed, "count"),
        "brauer.site.reuse_ratio":
            (1 - site_computed / site_calls if site_calls else 0.0, "ratio"),
        "brauer.pairs_at_s": (total("brauer.BlockContext.pairs_at"), "s"),
        "brauer.principal_type_s":
            (total("brauer.BlockContext.principal_type"), "s"),
        "brauer.defect_data_s":
            (total("brauer.BlockContext.defect_data"), "s"),
        "brauer.pair_poset_s": (total("brauer.BlockContext.pair_poset"), "s"),
        "brauer.normal_containment.calls":
            (calls("brauer.BlockContext.normal_containment"), "count"),
        "brauer.unique_subpair_s":
            (total("brauer.BlockContext.unique_subpair"), "s"),
        "commuting.block_geometry.self_s":
            (self_time("commuting.block_geometry"), "s"),
        "commuting.apairs": (size("commuting.block_geometry", "apairs"),
                             "count"),
        "commuting.kelements":
            (size("commuting.block_geometry", "kelements"), "count"),
        "commuting.clique_witness_s":
            (total("commuting.clique_witness"), "s"),
        "commuting.commuting_graph_s":
            (total("commuting.commuting_graph"), "s"),
        "topology.poset_build_s":
            (total("topology.Poset.__init__", "topology.GPoset.__init__"),
             "s"),
        "topology.quillen_pair_check_s":
            (total("topology.quillen_pair_check"), "s"),
        "topology.poset_iso_check_s":
            (total("topology.poset_iso_check"), "s"),
        "topology.orbit_poset_s": (total("topology.orbit_poset"), "s"),
        "topology.order_complex_s": (total("topology.order_complex"), "s"),
        "topology.simplices":
            (size("topology.order_complex", "simplices"), "count"),
        "topology.boundary_nnz":
            (size("topology.boundary_matrices", "nnz"), "count"),
        "topology.snf_s": (total("topology.smith_normal_form"), "s"),
        "topology.snf.calls": (calls("topology.smith_normal_form"), "count"),
        "topology.homology_s": (total("topology.homology"), "s"),
        "fusion.system_s": (total("fusion.FusionSystem.from_block_context",
                                  "fusion.FusionSystem.__init__"), "s"),
        "fusion.hom.calls": (calls("fusion.FusionSystem.hom"), "count"),
        "fusion.hom_s": (total("fusion.FusionSystem.hom"), "s"),
        "fusion.category_s":
            (total("fusion.CommutingCategory.__init__"), "s"),
        "fusion.objects":
            (size("fusion.CommutingCategory.__init__", "objects"), "count"),
        "fusion.iso_class_poset_s":
            (total("fusion.IsoClassPoset.__init__"), "s"),
        "verify.theorem1_s": (total("verify.check_theorem1"), "s"),
        "verify.theorem2_s": (total("verify.check_theorem2"), "s"),
        "verify.nonclique_s": (total("verify.check_nonclique"), "s"),
        "verify.principal_type_s":
            (total("verify.check_principal_type"), "s"),
        "verify.homology_s": (total("verify.check_homology"), "s"),
        "verify.theorem2.self_s":
            (self_time("verify.check_theorem2", ("fusion", "topology")), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.spans"] = (len(spans), "count")
    return m
