"""Seeded inputs, operations and output checks for the four workloads.

Every workload is built by ``build(name, seed, workdir, rm)``, where ``rm``
is the imported ``relmetric`` package.  Building is the set-up phase: scene
files are written and domains and scenes are constructed (which validates
them).  The result is a list of :class:`Op`.  ``expect`` prepares an op's
check data (chords, clearances, sample points) from the inputs alone; it is
the benchmark's own work, so it runs after set-up is timed and before the
run starts.  Running an op is one call into the program, and checking it
parses what the program printed or returned and tests properties that must
hold on every seed.  ``values`` of a checked op are compared with the
reference recorded at the default seed.

Checks are computed here from the raw output, never with the program's own
checkers, so a wrong value in the program cannot hide itself.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 2026
WORKLOADS = ("bound", "matrix", "profile", "small-scenes")

BOUND_CONTROL = 0.517638090205
MATRIX_SCENES = 5
MATRIX_SLITS = 4
MATRIX_VERTICES = 8
PROFILE_VERTICES = 40
PROFILE_SAMPLES = 32
SMALL_SCENES = 1000


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``expect`` computes the
    check data, ``check(output, expected)`` turns the raw output into
    (problems, values), ``corrupt`` plants a wrong value in the output for
    the self-test."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], tuple[list[str], Any]]
    corrupt: Callable[[Any], Any]
    expect: Callable[[], Any] = lambda: None


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(rm, argv: list[str]) -> CliOutput:
    """The real ``relmetric`` entry point, in-process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliOutput(code, out.getvalue(), err.getvalue())


def _lines(out: CliOutput) -> dict[str, str]:
    fields = {}
    for line in out.stdout.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest
    return fields


def _parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    rows = [line.split(",") for line in text.strip().splitlines()]
    names = rows[0][1:]
    if [r[0] for r in rows[1:]] != names:
        raise ValueError("row names do not match the header")
    return names, np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def _exit_problems(out: CliOutput) -> list[str]:
    if out.code != 0:
        return [f"exit code {out.code}: {out.stderr.strip()[:200]}"]
    return []


def _seg_dist(px, py, ax, ay, bx, by) -> float:
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    t = 0.0 if den <= 0.0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / den))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _cross(o, p, q) -> float:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _clear_of(p, q, walls, clearance: float = 1e-6) -> bool:
    """True when segment pq keeps ``clearance`` from every wall ``(a, b)``."""
    for a, b in walls:
        if _cross(p, q, a) * _cross(p, q, b) < 0 and _cross(a, b, p) * _cross(a, b, q) < 0:
            return False
        if min(
            _seg_dist(*p, *a, *b), _seg_dist(*q, *a, *b),
            _seg_dist(*a, *p, *q), _seg_dist(*b, *p, *q),
        ) <= clearance:
            return False
    return True


def _round12(x: float) -> float:
    # scene files store coordinates with 12 significant digits
    return float(format(x, ".12g"))


# ---------------------------------------------------------------------------
# bound: the paper's confined length bound, a fixed construction
# ---------------------------------------------------------------------------


def _build_bound(seed: int, workdir: str, rm) -> list[Op]:
    del seed, workdir  # the construction is fixed; the seed changes nothing

    def check(out: CliOutput, expected=None):
        problems = _exit_problems(out)
        f = _lines(out)
        if f.get("verdict") != "PASS":
            problems.append(f"verdict {f.get('verdict')!r}")
        if f.get("length") != "inf":
            problems.append(f"length {f.get('length')!r}, expected inf (severed)")
        try:
            control = float(f["control"])
        except (KeyError, ValueError):
            problems.append("no control line")
            control = math.nan
        if not abs(control - BOUND_CONTROL) <= 1e-12:
            problems.append(f"control {control!r} != {BOUND_CONTROL}")
        return problems, [math.inf if f.get("length") == "inf" else math.nan, control]

    def corrupt(out: CliOutput) -> CliOutput:
        text = out.stdout.replace(f"control {BOUND_CONTROL}", f"control {BOUND_CONTROL + 1e-6:.12g}")
        return CliOutput(out.code, text, out.stderr)

    argv = ["repro", "bound", "--levels", "3"]
    return [Op("repro bound --levels 3", lambda: run_cli(rm, argv), check, corrupt)]


# ---------------------------------------------------------------------------
# matrix: offset-limit distance matrices on seeded slit domains
# ---------------------------------------------------------------------------


def _matrix_scene(rng: random.Random, rm):
    """A random slit domain with 12 interior, 6 outer-boundary and 6 slit
    points (slit points carry a side hint)."""
    P = rm.geom.Point2
    # a fixed vertex and slit count keeps the work nearly the same on every seed
    while True:
        dseed = rng.randrange(2**31)
        # random_slit_domain draws its vertex count first: skipping seeds with
        # another count before building keeps set-up time steady
        if random.Random(dseed).randint(6, 11) != MATRIX_VERTICES:
            continue
        domain = rm.constructions.random_slit_domain(dseed, slits=MATRIX_SLITS)
        if len(domain.outer) == MATRIX_VERTICES and len(domain.slits) == MATRIX_SLITS:
            break
    outer = domain.outer
    edges = [(outer[i], outer[(i + 1) % len(outer)]) for i in range(len(outer))]
    walls = edges + [(s.a, s.b) for s in domain.slits]
    xs = [p.x for p in outer]
    ys = [p.y for p in outer]
    points, hints = {}, {}
    k = 0
    while k < 12:
        p = P(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
        if rm.geom.contains(domain, p) is not rm.geom.Region.INTERIOR:
            continue
        # clear of every wall by more than the largest inward offset
        if min(_seg_dist(p.x, p.y, a.x, a.y, b.x, b.y) for a, b in walls) < 0.05:
            continue
        points[f"i{k:02d}"] = p
        k += 1
    for k in range(6):
        a, b = edges[rng.randrange(len(edges))]
        t = rng.uniform(0.2, 0.8)
        points[f"o{k:02d}"] = P(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    for k in range(6):
        s = domain.slits[k % MATRIX_SLITS]
        t = rng.uniform(0.2, 0.8)
        name = f"s{k:02d}"
        points[name] = P(s.a.x + t * (s.b.x - s.a.x), s.a.y + t * (s.b.y - s.a.y))
        hints[name] = rng.choice(("left", "right"))
    return domain, points, hints


def _matrix_expect(names: list[str], points, domain):
    """Chords between the scene's points, and which interior pairs have a
    chord that clears every wall."""
    xy = [(_round12(points[n].x), _round12(points[n].y)) for n in names]
    chords = np.array([[math.dist(p, q) for q in xy] for p in xy])
    outer = domain.outer
    walls = [((v.x, v.y), (w.x, w.y)) for v, w in zip(outer, outer[1:] + outer[:1])]
    walls += [((s.a.x, s.a.y), (s.b.x, s.b.y)) for s in domain.slits]
    clear = np.array([
        [n[0] == m[0] == "i" and n != m and _clear_of(p, q, walls)
         for m, q in zip(names, xy)]
        for n, p in zip(names, xy)
    ])
    return chords, clear


def _check_matrix(out: CliOutput, names: list[str], chords: np.ndarray, clear: np.ndarray):
    problems = _exit_problems(out)
    try:
        got_names, M = _parse_csv(out.stdout)
    except (ValueError, IndexError) as exc:
        return problems + [f"unparsable matrix: {exc}"], None
    if got_names != names or M.shape != (len(names), len(names)):
        return problems + ["matrix names or shape differ from the scene"], None
    if not np.isfinite(M).all():
        return problems + ["non-finite entries"], M.tolist()
    tol = 1e-6
    n = len(names)
    if np.abs(M - M.T).max() > tol:
        problems.append(f"symmetry gap {np.abs(M - M.T).max():.3e}")
    off = ~np.eye(n, dtype=bool)
    if np.abs(np.diag(M)).max() > tol or M[off].min() <= tol:
        problems.append("identity violated (zero diagonal, positive off-diagonal)")
    excess = M[:, None, :] - M[:, :, None] - M[None, :, :]  # d(i,k) - d(i,j) - d(j,k)
    if excess.max() > tol:
        problems.append(f"triangle excess {excess.max():.3e}")
    if (M < chords - tol).any():
        problems.append("a distance is shorter than its chord")
    # interior points joined by a chord that clears every wall: no offsets,
    # no extrapolation, the distance is the chord
    if (np.abs(M - chords)[clear] > 1e-9).any():
        problems.append(f"clear chord mismatch {np.abs(M - chords)[clear].max():.3e}")
    return problems, M.tolist()


def _build_matrix(seed: int, workdir: str, rm) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for k in range(MATRIX_SCENES):
        domain, points, hints = _matrix_scene(rng, rm)
        scene = rm.sceneio.Scene(
            domain=domain,
            points=points,
            hints=hints,
            generator={"kind": "perfbench-matrix", "seed": seed, "index": k},
        )
        path = os.path.join(workdir, f"matrix-{k}.json")
        rm.sceneio.save_scene(scene, path)
        names = sorted(points)
        argv = ["matrix", path]

        def corrupt(out: CliOutput) -> CliOutput:
            names_, M = _parse_csv(out.stdout)
            M[0, 1] += 0.5
            return CliOutput(out.code, rm.sceneio.matrix_csv(names_, M), out.stderr)

        ops.append(
            Op(
                f"matrix scene {k}",
                lambda argv=argv: run_cli(rm, argv),
                lambda out, expected, names=names: _check_matrix(out, names, *expected),
                corrupt,
                lambda names=names, points=points, domain=domain: _matrix_expect(
                    names, points, domain
                ),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# profile: boundary-profile congruence of a convex polygon and its motion
# ---------------------------------------------------------------------------


def _convex_polygon(rng: random.Random) -> list[tuple[float, float]]:
    n = PROFILE_VERTICES
    base = rng.uniform(0.0, 2.0 * math.pi)
    th = [base + 2.0 * math.pi * (i + rng.uniform(-0.35, 0.35)) / n for i in range(n)]
    a = rng.uniform(1.0, 2.0)
    b = a * rng.uniform(0.6, 1.0)
    phi = rng.uniform(0.0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    # vertices on an ellipse in angular order: a strictly convex CCW polygon
    return [
        (_round12(c * a * math.cos(t) - s * b * math.sin(t)),
         _round12(s * a * math.cos(t) + c * b * math.sin(t)))
        for t in th
    ]


def _rigid_motion(rng: random.Random, verts):
    psi = rng.uniform(0.0, 2.0 * math.pi)
    tx, ty = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    c, s = math.cos(psi), math.sin(psi)
    return [(_round12(c * x - s * y + tx), _round12(s * x + c * y + ty)) for x, y in verts]


def profile_samples(verts, m: int) -> np.ndarray:
    """The profile's sample points on a convex polygon, placed as
    ``boundary_profile`` places them: anchored at the first vertex, then
    moved until consecutive gaps agree within 1%.  On a convex polygon the
    boundary-relative gap between two boundary points is their chord."""
    V = [tuple(v) for v in verts]
    cum = [0.0]
    for i, v in enumerate(V):
        w = V[(i + 1) % len(V)]
        cum.append(cum[-1] + math.hypot(w[0] - v[0], w[1] - v[1]))
    total = cum[-1]

    def at(s: float):
        s = s % total
        lo, hi = 0, len(V)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if cum[mid] <= s:
                lo = mid
            else:
                hi = mid
        a, b = V[lo], V[(lo + 1) % len(V)]
        span = cum[lo + 1] - cum[lo]
        t = 0.0 if span <= 0 else (s - cum[lo]) / span
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

    pos = [total * i / m for i in range(m)]
    samples = [at(s) for s in pos]
    for _ in range(60):
        gaps = [math.dist(samples[i], samples[(i + 1) % m]) for i in range(m)]
        mean = sum(gaps) / m
        if max(abs(g - mean) for g in gaps) / mean <= 0.01:
            break
        cum_gap = [0.0]
        for g in gaps:
            cum_gap.append(cum_gap[-1] + g)
        anchors = pos + [total]
        new_pos = [0.0]
        for i in range(1, m):
            t = cum_gap[-1] * i / m
            k = next(j for j in range(m) if cum_gap[j + 1] >= t)
            span = cum_gap[k + 1] - cum_gap[k]
            frac = 0.0 if span <= 0 else (t - cum_gap[k]) / span
            new_pos.append(anchors[k] + frac * (anchors[k + 1] - anchors[k]))
        pos = new_pos
        samples = [at(s) for s in pos]
    return np.array(samples)


def _profile_expect(verts) -> np.ndarray:
    """Euclidean distances between the profile's samples."""
    S = profile_samples(verts, PROFILE_SAMPLES)
    return np.hypot(S[:, None, 0] - S[None, :, 0], S[:, None, 1] - S[None, :, 1])


def _check_profile(out: CliOutput, csv_path: str, E: np.ndarray):
    problems = _exit_problems(out)
    f = _lines(out)
    if f.get("verdict") != "PASS":
        problems.append(f"verdict {f.get('verdict')!r}")
    try:
        residual = float(f["profile_residual"])
    except (KeyError, ValueError):
        return problems + ["no profile_residual line"], None
    if not residual <= 1e-9:
        problems.append(f"profile residual {residual:.3e} > 1e-9")
    try:
        with open(csv_path) as fh:
            _, M = _parse_csv(fh.read())
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"profile csv unreadable: {exc}"], None
    if M.shape != E.shape:
        return problems + [f"profile shape {M.shape}"], None
    gap = float(np.abs(M - E).max())
    if not gap <= 1e-9:
        problems.append(f"profile differs from Euclidean sample distances by {gap:.3e}")
    return problems, [residual, M.tolist()]


def _build_profile(seed: int, workdir: str, rm) -> list[Op]:
    rng = random.Random(seed)
    va = _convex_polygon(rng)
    vb = _rigid_motion(rng, va)
    P = rm.geom.Point2
    paths = []
    for tag, verts in (("a", va), ("b", vb)):
        domain = rm.geom.PlanarDomain(tuple(P(x, y) for x, y in verts))
        scene = rm.sceneio.Scene(domain=domain, generator={"kind": "perfbench-profile", "seed": seed})
        path = os.path.join(workdir, f"profile-{tag}.json")
        rm.sceneio.save_scene(scene, path)
        paths.append(path)
    csv_path = os.path.join(workdir, "profile-a.csv")
    argv = ["compare", paths[0], paths[1], "--samples", str(PROFILE_SAMPLES), "--csv", csv_path]

    def corrupt(out: CliOutput) -> CliOutput:
        with open(csv_path) as fh:
            names, M = _parse_csv(fh.read())
        M[0, 1] += 1e-6
        with open(csv_path, "w") as fh:
            fh.write(rm.sceneio.matrix_csv(names, M))
        return out

    return [
        Op(
            f"compare --samples {PROFILE_SAMPLES}",
            lambda: run_cli(rm, argv),
            lambda out, expected: _check_profile(out, csv_path, expected),
            corrupt,
            lambda: _profile_expect(va),
        )
    ]


# ---------------------------------------------------------------------------
# small-scenes: the criterion-10 generator as library calls
# ---------------------------------------------------------------------------


def _random_obstacles(rng: random.Random, rm):
    P, Segment2 = rm.geom.Point2, rm.geom.Segment2
    while True:
        segs = []
        for _ in range(rng.randint(3, 6)):
            a = P(rng.uniform(0, 1), rng.uniform(0, 1))
            b = P(a.x + rng.uniform(-0.4, 0.4), a.y + rng.uniform(-0.4, 0.4))
            if a.distance_to(b) < 1e-3:
                continue
            segs.append(Segment2(a, b))
        if len(segs) < 2:
            continue
        try:
            return rm.visibility.ObstacleScene(segments=tuple(segs))
        except rm.errors.SceneInvalid:
            continue


def _free_point(rng: random.Random, scene, rm):
    while True:
        x, y = rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)
        if all(
            _seg_dist(x, y, s.a.x, s.a.y, s.b.x, s.b.y) > 1e-3 for s in scene.segments
        ):
            return rm.geom.Point2(x, y)


def _check_small(lengths, chords, clear):
    """Criterion 10's pinned tolerances, plus: no length is shorter than its
    chord, and a pair whose chord clears every obstacle has the chord as its
    length."""
    dab, dba, dac, dcb, dsub = lengths
    problems = []
    if not all(math.isfinite(v) for v in lengths):
        problems.append(f"unreachable pair in a free-plane scene: {lengths}")
    if not abs(dab - dba) <= 1e-12:
        problems.append(f"symmetry gap {abs(dab - dba):.3e} > 1e-12")
    if not dab - (dac + dcb) <= 1e-9:
        problems.append(f"triangle excess {dab - (dac + dcb):.3e} > 1e-9")
    if not dsub - dab <= 1e-9:
        problems.append(f"dropping an obstacle lengthened ab by {dsub - dab:.3e}")
    for d, chord, free in zip(lengths, chords, clear):
        if not d >= chord - 1e-12 or (free and not abs(d - chord) <= 1e-12):
            problems.append(f"length {d!r} against chord {chord!r} (clear: {free})")
            break
    return problems, list(lengths)


def _build_small(seed: int, workdir: str, rm) -> list[Op]:
    del workdir
    rng = random.Random(seed)
    PreparedScene = rm.visibility.PreparedScene
    ops = []
    # same draw order as criterion 10, so seed 2026 gives its 1000 scenes
    for k in range(SMALL_SCENES):
        scene = _random_obstacles(rng, rm)
        a, b, c = (_free_point(rng, scene, rm) for _ in range(3))
        sub = rm.visibility.ObstacleScene(segments=scene.segments[:-1])

        def run(scene=scene, sub=sub, a=a, b=b, c=c):
            eng = PreparedScene(scene)
            dab = eng.shortest_path(a, b).length
            dba = eng.shortest_path(b, a).length
            dac = eng.shortest_path(a, c).length
            dcb = eng.shortest_path(c, b).length
            dsub = PreparedScene(sub).shortest_path(a, b).length
            return (dab, dba, dac, dcb, dsub)

        def corrupt(lengths):
            return (lengths[0] + 1e-6,) + tuple(lengths[1:])

        def expect(scene=scene, a=a, b=b, c=c):
            pairs = [(a, b), (b, a), (a, c), (c, b), (a, b)]
            walls = [((w.a.x, w.a.y), (w.b.x, w.b.y)) for w in scene.segments]
            return (
                [p.distance_to(q) for p, q in pairs],
                [_clear_of((p.x, p.y), (q.x, q.y), walls) for p, q in pairs],
            )

        def check(lengths, expected):
            return _check_small(lengths, *expected)

        ops.append(Op(f"scene {k}", run, check, corrupt, expect))
    return ops


BUILDERS = {
    "bound": _build_bound,
    "matrix": _build_matrix,
    "profile": _build_profile,
    "small-scenes": _build_small,
}


def build(name: str, seed: int, workdir: str, rm) -> list[Op]:
    return BUILDERS[name](seed, workdir, rm)


def _flatten(values) -> list:
    if isinstance(values, (list, tuple)):
        return [v for item in values for v in _flatten(item)]
    return [values]


def compare_values(got, want, tol: float = 1e-9) -> str | None:
    """None when ``got`` matches the reference ``want`` within ``tol``
    (infinities must match exactly), else a description of the mismatch."""
    g = np.array(_flatten(got), dtype=float)
    w = np.array(_flatten(want), dtype=float)
    if g.shape != w.shape:
        return f"shape {g.shape} != reference {w.shape}"
    inf_g, inf_w = np.isinf(g), np.isinf(w)
    if (inf_g != inf_w).any() or (g[inf_g] != w[inf_w]).any():
        return "infinite entries differ from the reference"
    if np.isnan(g).any():
        return "NaN in output"
    fin = ~inf_g
    gap = float(np.abs(g[fin] - w[fin]).max()) if fin.any() else 0.0
    if gap > tol:
        return f"differs from the reference by {gap:.3e} > {tol:g}"
    return None
