"""Layer spans recorded from outside the program.

``Tracer.install`` replaces functions, methods and constructors of
``relmetric`` modules with timing wrappers.  A name imported into another
module (``from .geom import contains``) is a separate binding, so every
``relmetric`` module attribute that is the original object is replaced.
No source file is edited.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the pass ends.  ``summary`` turns them into the per-layer metrics:

- ``<layer>.<function>.calls``: spans recorded;
- ``<layer>.<function>.s``: inclusive time, outermost span of a name only;
- ``<layer>.<function>.self_s``: span time minus the time of its child spans;
- ``batch.<kernel>.pairs``: elements evaluated, from argument shapes;
- ``visibility.shortest_path.unreached``: searches that reached nothing;
- ``metric.searches_per_entry``: searches inside ``distance_matrix`` per
  off-diagonal matrix entry;
- ``rigidity.searches_per_profile``: searches inside ``boundary_profile``
  per profile.

The layer prefix is the module name; ``_batch`` is reported as ``batch``
because metric names start with a letter.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

SEARCH = "visibility.PreparedScene.shortest_path"


def _pairs_rows_cols(r, c):
    return lambda args: len(args[r]) * len(args[c])


# (module, attribute path, metric prefix, pairs-from-arguments or None)
TARGETS = [
    ("_batch", "cross_matrix", "batch.cross_matrix", _pairs_rows_cols(1, 2)),
    ("_batch", "seg_point_dists", "batch.seg_point_dists", _pairs_rows_cols(1, 2)),
    ("_batch", "point_seg_dists", "batch.point_seg_dists", _pairs_rows_cols(0, 1)),
    ("_batch", "points_in_polygon", "batch.points_in_polygon", _pairs_rows_cols(0, 1)),
    ("visibility", "ObstacleScene.__init__", "visibility.ObstacleScene", None),
    ("visibility", "PreparedScene.__init__", "visibility.PreparedScene", None),
    ("visibility", "PreparedScene.shortest_path", SEARCH, None),
    ("visibility", "shortest_path_confined", "visibility.shortest_path_confined", None),
    ("geom", "PlanarDomain.__init__", "geom.PlanarDomain", None),
    ("geom", "contains", "geom.contains", None),
    ("geom", "inward_offset", "geom.inward_offset", None),
    ("metric", "distance_matrix", "metric.distance_matrix", None),
    ("rigidity", "boundary_profile", "rigidity.boundary_profile", None),
    ("rigidity", "compare_profiles", "rigidity.compare_profiles", None),
    ("rigidity", "euclidean_congruence", "rigidity.euclidean_congruence", None),
    ("constructions", "verify_length_bound", "constructions.verify_length_bound", None),
    ("sceneio", "load_scene", "sceneio.load_scene", None),
    ("cli", "main", "cli.main", None),
]


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for _, _, prefix, pairs in TARGETS:
        names += [f"{prefix}.calls", f"{prefix}.s", f"{prefix}.self_s"]
        if pairs is not None:
            names.append(f"{prefix}.pairs")
    names += [
        "visibility.shortest_path.unreached",
        "metric.searches_per_entry",
        "rigidity.searches_per_profile",
    ]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("searches_per_entry"):
        return "searches/entry"
    if name.endswith("searches_per_profile"):
        return "searches/profile"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pairs: dict[str, int] = {}
        self.unreached = 0
        self.matrix_entries = 0
        self.run_start = 0

    def _wrap(self, prefix, fn, pairs):
        spans, stack = self.spans, self._stack
        is_search = prefix == SEARCH
        is_matrix = prefix == "metric.distance_matrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pairs is not None:
                self.pairs[prefix] = self.pairs.get(prefix, 0) + pairs(args)
            if is_matrix:
                n = len(args[1])
                self.matrix_entries += n * (n - 1)
            idx = len(spans)
            spans.append([prefix, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if is_search and not result.reached:
                self.unreached += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; must run after ``relmetric.cli`` is imported
        so that the names it imported are replaced too."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "relmetric" or name.startswith("relmetric."))
        ]
        for mod_name, attr, prefix, pairs in TARGETS:
            owner = sys.modules[f"relmetric.{mod_name}"]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self._wrap(prefix, original, pairs)
            setattr(owner, leaf, wrapped)
            if cls_path:
                continue  # methods and constructors live on the class
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def mark_run_start(self) -> None:
        """Spans recorded from here on make up the per-layer metrics."""
        self.run_start = len(self.spans)
        self.pairs = {}
        self.unreached = 0
        self.matrix_entries = 0

    def summary(self, elapsed=lambda a, b: b - a) -> dict[str, float]:
        """Per-layer metrics; ``elapsed(start, end)`` turns a span into
        seconds (the worker passes its host-corrected clock)."""
        spans = self.spans
        start = self.run_start
        dur = [0.0] * len(spans)
        child_time = [0.0] * len(spans)
        for i in range(start, len(spans)):
            s = spans[i]
            dur[i] = elapsed(s[1], s[2])
            if s[3] >= 0:
                child_time[s[3]] += dur[i]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        in_matrix = in_profile = 0
        for i in range(start, len(spans)):
            name, _, _, parent = spans[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child_time[i]
            outermost = True
            p = parent
            while p >= 0:
                pname = spans[p][0]
                if pname == name:
                    outermost = False
                if name == SEARCH and pname == "metric.distance_matrix":
                    in_matrix += 1
                if name == SEARCH and pname == "rigidity.boundary_profile":
                    in_profile += 1
                p = spans[p][3]
            if outermost:
                incl[name] = incl.get(name, 0.0) + dur[i]
        out: dict[str, float] = {}
        for _, _, prefix, pairs in TARGETS:
            out[f"{prefix}.calls"] = calls.get(prefix, 0)
            out[f"{prefix}.s"] = incl.get(prefix, 0.0)
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
            if pairs is not None:
                out[f"{prefix}.pairs"] = self.pairs.get(prefix, 0)
        out["visibility.shortest_path.unreached"] = self.unreached
        entries = self.matrix_entries
        out["metric.searches_per_entry"] = in_matrix / entries if entries else 0.0
        profiles = calls.get("rigidity.boundary_profile", 0)
        out["rigidity.searches_per_profile"] = in_profile / profiles if profiles else 0.0
        return out

    def write(self, path: str) -> None:
        """All spans of the pass, set-up included, as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "run_start": self.run_start,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
