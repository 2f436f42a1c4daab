"""Scene files, CSV tables and SVG figures.

A scene is a JSON document with a fixed vocabulary:

    {
      "domain":   {"outer": [[x,y],...], "holes": [...], "slits": [[[x,y],[x,y]],...]},
      "points":   {"name": [x,y], ...},
      "hints":    {"name": "left" | "right", ...},
      "config":   {"offsets": [...], "tol_metric": ..., "extrapolation": ...,
                   "m_circle": ...},
      "segments": [[[x,y],[x,y]], ...],
      "generator": {...}
    }

Every field is optional; unknown fields are rejected.  Serialization is
canonical: sorted keys, two-space indent, floats at 12 significant digits,
so parse -> serialize -> parse is the identity and byte-level diffs are
meaningful.  The generator block is free-form provenance written by `gen`
commands and is carried through untouched.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .errors import SceneInvalid
from .geom import PlanarDomain, Point2, Segment2
from .metric import EXTRAPOLATIONS, MetricConfig

_TOP_KEYS = {"domain", "points", "hints", "config", "segments", "generator"}
_DOMAIN_KEYS = {"outer", "holes", "slits"}
_CONFIG_KEYS = {"offsets", "tol_metric", "extrapolation", "m_circle"}
_SIDES = {"left", "right"}

DEFAULT_M_CIRCLE = 256


def canonical_float(x: float) -> float:
    """The float whose shortest repr carries at most 12 significant digits."""
    return float(format(float(x), ".12g"))


def fmt12(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class Scene:
    domain: PlanarDomain | None = None
    points: dict[str, Point2] = field(default_factory=dict)
    hints: dict[str, str] = field(default_factory=dict)
    config: MetricConfig = field(default_factory=MetricConfig)
    m_circle: int = DEFAULT_M_CIRCLE
    segments: tuple[Segment2, ...] = ()
    generator: dict | None = None


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SceneInvalid(f"{where} must be an object")
    return obj


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SceneInvalid(f"{where}: unknown field(s) {sorted(unknown)}")


def _num(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SceneInvalid(f"{where} must be a number")
    return float(v)


def _pair(v: Any, where: str) -> Point2:
    if not isinstance(v, list) or len(v) != 2:
        raise SceneInvalid(f"{where} must be a [x, y] pair")
    return Point2(_num(v[0], f"{where}[0]"), _num(v[1], f"{where}[1]"))


def _ring(v: Any, where: str) -> tuple[Point2, ...]:
    if not isinstance(v, list) or len(v) < 3:
        raise SceneInvalid(f"{where} must be a list of at least 3 [x, y] pairs")
    return tuple(_pair(p, f"{where}[{i}]") for i, p in enumerate(v))


def _segment(v: Any, where: str) -> Segment2:
    if not isinstance(v, list) or len(v) != 2:
        raise SceneInvalid(f"{where} must be [[x,y],[x,y]]")
    return Segment2(_pair(v[0], f"{where}[0]"), _pair(v[1], f"{where}[1]"))


def _parse_domain(raw: Any) -> PlanarDomain:
    obj = _require_mapping(raw, "domain")
    _check_keys(obj, _DOMAIN_KEYS, "domain")
    if "outer" not in obj:
        raise SceneInvalid("domain.outer is required")
    outer = _ring(obj["outer"], "domain.outer")
    holes_raw = obj.get("holes", [])
    if not isinstance(holes_raw, list):
        raise SceneInvalid("domain.holes must be a list")
    holes = tuple(
        _ring(h, f"domain.holes[{i}]") for i, h in enumerate(holes_raw)
    )
    slits_raw = obj.get("slits", [])
    if not isinstance(slits_raw, list):
        raise SceneInvalid("domain.slits must be a list")
    slits = tuple(
        _segment(s, f"domain.slits[{i}]") for i, s in enumerate(slits_raw)
    )
    return PlanarDomain(outer, holes, slits)


def _parse_config(raw: Any) -> tuple[MetricConfig, int]:
    obj = _require_mapping(raw, "config")
    _check_keys(obj, _CONFIG_KEYS, "config")
    kwargs: dict[str, Any] = {}
    if "offsets" in obj:
        offs = obj["offsets"]
        if not isinstance(offs, list) or not offs:
            raise SceneInvalid("config.offsets must be a non-empty list")
        kwargs["offsets"] = tuple(
            _num(d, f"config.offsets[{i}]") for i, d in enumerate(offs)
        )
    if "tol_metric" in obj:
        kwargs["tol_metric"] = _num(obj["tol_metric"], "config.tol_metric")
    if "extrapolation" in obj:
        ex = obj["extrapolation"]
        if ex not in EXTRAPOLATIONS:
            raise SceneInvalid(
                f"config.extrapolation must be one of {sorted(EXTRAPOLATIONS)}"
            )
        kwargs["extrapolation"] = ex
    m_circle = DEFAULT_M_CIRCLE
    if "m_circle" in obj:
        m = obj["m_circle"]
        if isinstance(m, bool) or not isinstance(m, int) or m < 8:
            raise SceneInvalid("config.m_circle must be an integer >= 8")
        m_circle = m
    return MetricConfig(**kwargs), m_circle


def parse_scene(text: str) -> Scene:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise SceneInvalid(f"not valid JSON: {exc}") from exc
    obj = _require_mapping(raw, "scene")
    _check_keys(obj, _TOP_KEYS, "scene")

    domain = _parse_domain(obj["domain"]) if "domain" in obj else None

    points: dict[str, Point2] = {}
    if "points" in obj:
        pts = _require_mapping(obj["points"], "points")
        for name, v in pts.items():
            points[str(name)] = _pair(v, f"points.{name}")

    hints: dict[str, str] = {}
    if "hints" in obj:
        hs = _require_mapping(obj["hints"], "hints")
        for name, side in hs.items():
            if name not in points:
                raise SceneInvalid(f"hints.{name}: no such point")
            if side not in _SIDES:
                raise SceneInvalid(f"hints.{name} must be 'left' or 'right'")
            hints[str(name)] = side

    config, m_circle = (
        _parse_config(obj["config"]) if "config" in obj
        else (MetricConfig(), DEFAULT_M_CIRCLE)
    )

    segments: tuple[Segment2, ...] = ()
    if "segments" in obj:
        seg_raw = obj["segments"]
        if not isinstance(seg_raw, list):
            raise SceneInvalid("segments must be a list")
        segments = tuple(
            _segment(s, f"segments[{i}]") for i, s in enumerate(seg_raw)
        )

    generator = None
    if "generator" in obj:
        generator = _require_mapping(obj["generator"], "generator")

    return Scene(domain, points, hints, config, m_circle, segments, generator)


def _xy(p: Point2) -> list[float]:
    return [canonical_float(p.x), canonical_float(p.y)]


def _canon(value: Any) -> Any:
    """Recursively round floats in generator blocks for stable output."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return canonical_float(value)
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def scene_to_json(scene: Scene) -> str:
    doc: dict[str, Any] = {}
    if scene.domain is not None:
        d: dict[str, Any] = {"outer": [_xy(p) for p in scene.domain.outer]}
        if scene.domain.holes:
            d["holes"] = [[_xy(p) for p in h] for h in scene.domain.holes]
        if scene.domain.slits:
            d["slits"] = [[_xy(s.a), _xy(s.b)] for s in scene.domain.slits]
        doc["domain"] = d
    if scene.points:
        doc["points"] = {name: _xy(p) for name, p in sorted(scene.points.items())}
    if scene.hints:
        doc["hints"] = dict(sorted(scene.hints.items()))
    doc["config"] = {
        "offsets": [canonical_float(d) for d in scene.config.offsets],
        "tol_metric": canonical_float(scene.config.tol_metric),
        "extrapolation": scene.config.extrapolation,
        "m_circle": scene.m_circle,
    }
    if scene.segments:
        doc["segments"] = [[_xy(s.a), _xy(s.b)] for s in scene.segments]
    if scene.generator is not None:
        doc["generator"] = _canon(scene.generator)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_scene(path: str | Path) -> Scene:
    return parse_scene(Path(path).read_text())


def save_scene(scene: Scene, path: str | Path) -> None:
    Path(path).write_text(scene_to_json(scene))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def matrix_csv(names: Sequence[str], values) -> str:
    """Square distance table with a point-name header row and column.

    Values print with 12 significant digits; unreachable entries print inf.
    """
    n = len(names)
    lines = ["," + ",".join(names)]
    for i in range(n):
        row = values[i]
        if len(row) != n:
            raise SceneInvalid("matrix is not square over the names")
        lines.append(names[i] + "," + ",".join(fmt12(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _svg_bbox(pts: list[Point2]) -> tuple[float, float, float, float]:
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def render_svg(
    scene: Scene,
    extra_points: dict[str, Point2] | None = None,
) -> str:
    """Static SVG 1.1 figure, 640 units wide: domain fill, slits, obstacle
    segments and labeled points."""
    world: list[Point2] = []
    if scene.domain is not None:
        world.extend(scene.domain.outer)
        for h in scene.domain.holes:
            world.extend(h)
        for s in scene.domain.slits:
            world.extend((s.a, s.b))
    for s in scene.segments:
        world.extend((s.a, s.b))
    world.extend(scene.points.values())
    if extra_points:
        world.extend(extra_points.values())
    if not world:
        raise SceneInvalid("nothing to draw")
    x0, y0, x1, y1 = _svg_bbox(world)
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * span
    width = 640
    k = width / (span + 2 * pad)
    height = math.ceil((y1 - y0 + 2 * pad) * k)

    def X(x: float) -> str:
        return fmt12((x - x0 + pad) * k)

    def Y(y: float) -> str:
        return fmt12((y1 - y + pad) * k)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if scene.domain is not None:
        d_parts = []
        rings = [scene.domain.outer, *scene.domain.holes]
        for ring in rings:
            d_parts.append(
                "M "
                + " L ".join(f"{X(p.x)} {Y(p.y)}" for p in ring)
                + " Z"
            )
        out.append(
            f'<path d="{" ".join(d_parts)}" fill="#eef2f7" stroke="#334155" '
            f'stroke-width="1.5" fill-rule="evenodd"/>'
        )
        for s in scene.domain.slits:
            out.append(
                f'<line x1="{X(s.a.x)}" y1="{Y(s.a.y)}" x2="{X(s.b.x)}" '
                f'y2="{Y(s.b.y)}" stroke="#b91c1c" stroke-width="1.5"/>'
            )
    for s in scene.segments:
        out.append(
            f'<line x1="{X(s.a.x)}" y1="{Y(s.a.y)}" x2="{X(s.b.x)}" '
            f'y2="{Y(s.b.y)}" stroke="#1d4ed8" stroke-width="1"/>'
        )
    labeled = dict(sorted(scene.points.items()))
    if extra_points:
        labeled.update(sorted(extra_points.items()))
    for name, p in labeled.items():
        out.append(
            f'<circle cx="{X(p.x)}" cy="{Y(p.y)}" r="3" fill="#111827"/>'
        )
        out.append(
            f'<text x="{X(p.x)}" y="{Y(p.y)}" dx="5" dy="-5" '
            f'font-size="11" font-family="sans-serif">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
