"""The benchmark's workloads as decks of seeded jobs.

A deck is the list of jobs one workload builds at set-up: a fixed mix of
job kinds whose continuous inputs come from the seed.  A run replays the
deck in seeded orders, so every run has the same mix and the latency
percentiles weigh the same job kinds (see README.md for where each lands).
Each job is a closure of timed calls into the program
(``henneberg.cli.main`` in-process, plus library calls) and an untimed
check of what they returned.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import henneberg.cli
import henneberg.geometry
import henneberg.meshing
from henneberg.geometry import circle_curve, equator_curve
from henneberg.meshing import SamplingSpec, build_mesh
from henneberg.period import family_theta2, symmetric_example
from henneberg.surfaces import (
    surface_associated,
    surface_conjugate,
    surface_h1,
    surface_hm,
    surface_integrated,
    surface_limit_m2,
)


class ExitCodeError(Exception):
    """The CLI returned an exit code the job did not expect."""


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]  # timed calls into the program
    check: Callable[[object], str | None]  # None, or what is wrong
    out: str | None = None  # file the job writes, removed after the check


@dataclass
class Outcome:
    kind: str
    label: str
    ms: float
    error: str | None = None  # traceback or unexpected exit code
    wrong: str | None = None  # failed output check

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


@dataclass
class CliResult:
    stdout: str
    stderr: str
    extra: object = None  # what the job read back after the CLI call

    @property
    def payload(self) -> dict:
        return json.loads(self.stdout)


def cli_call(argv: list[str], expect: int = 0) -> CliResult:
    """Run ``henneberg.cli.main(argv)`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = henneberg.cli.main(argv)
    if code != expect:
        lines = err.getvalue().strip().splitlines() or ["(no message)"]
        raise ExitCodeError(f"exit {code}: {lines[-1]}")
    return CliResult(out.getvalue(), err.getvalue())


def run_job(job: Job, tracer=None) -> Outcome:
    if tracer is not None:
        tracer.job = job.label
    t0 = time.perf_counter()
    try:
        value = job.run()
    except (Exception, SystemExit) as exc:  # the job boundary: count, go on
        ms = (time.perf_counter() - t0) * 1e3
        outcome = Outcome(job.kind, job.label, ms, error=f"{type(exc).__name__}: {exc}")
    else:
        ms = (time.perf_counter() - t0) * 1e3
        try:
            wrong = job.check(value)
        except Exception as exc:  # malformed output is a failed check
            wrong = f"{type(exc).__name__}: {exc}"
        outcome = Outcome(job.kind, job.label, ms, wrong=wrong)
    if job.out is not None and os.path.exists(job.out):
        os.remove(job.out)
    return outcome


def _fmt(x: float) -> str:
    return repr(float(x))


def _family_angle(rng: random.Random, both_branches: bool = True) -> float:
    """theta2 in the family domain (pi/4, pi/3] U [2 pi/3, 3 pi/4)."""
    if both_branches and rng.random() < 0.5:
        return rng.uniform(2 * math.pi / 3, 3 * math.pi / 4 - 1e-3)
    return rng.uniform(math.pi / 4 + 1e-3, math.pi / 3)


# ---------------------------------------------------------------------------
# the generate deck
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeshConfig:
    selector: str
    params: tuple  # CLI flags after the selector
    quotient: bool
    fmt: str

    def surface(self):
        """The surface the CLI builds for this selector, from the library."""
        p = dict(zip(self.params[::2], self.params[1::2]))
        s = self.selector
        if s == "h1":
            return surface_h1()
        if s in ("hm-odd", "hm-even"):
            return surface_hm(int(p["--m"]))
        if s == "conjugate":
            return surface_conjugate(int(p["--m"]))
        if s == "associated":
            return surface_associated(symmetric_example(int(p["--m"])), float(p["--phi"]))
        if s == "limit-m2":
            return surface_limit_m2()
        return surface_integrated(family_theta2(float(p["--theta2"])).weierstrass())


def _mesh_params(selector: str, rng: random.Random) -> tuple:
    if selector in ("hm-odd", "conjugate"):
        return ("--m", str(rng.choice((1, 3, 5, 7))))
    if selector == "hm-even":
        return ("--m", str(rng.choice((2, 4, 6, 8))))
    if selector == "associated":
        return ("--m", str(rng.randint(1, 4)), "--phi", _fmt(rng.uniform(0, 2 * math.pi)))
    if selector == "family":
        return ("--theta2", _fmt(_family_angle(rng)))
    return ()


MESH_SELECTORS = ("h1", "hm-odd", "hm-even", "conjugate", "associated", "limit-m2", "family")
FULL_OBJ = ("h1", "family")  # the selectors written to OBJ on the full sheet


class MeshExport:
    """``generate`` at the default 129x256 grid; each job reads its file
    back and compares it bit for bit with a reference built at set-up."""

    def __init__(self, rng: random.Random, work: str, small: bool = False):
        self.work = work
        self.tracer = None  # set once the timed passes start
        self.grid = (17, 32) if small else (129, 256)
        # one deck: every selector once on the full sheet, two to OBJ and
        # five to PLY, plus one quotient mesh of a seeded selector in each
        # format.  The formats are fixed, not seeded: an OBJ job takes about
        # four times as long as a PLY job, so a seeded format would change
        # the deck's cost from seed to seed.  The deck is kept short so that
        # a run replays each slot often enough (see README.md).
        plan = [(s, False, "obj" if s in FULL_OBJ else "ply") for s in MESH_SELECTORS]
        plan += [(rng.choice(MESH_SELECTORS), True, fmt) for fmt in ("obj", "ply")]
        if small:
            plan = [("h1", False, "obj"), ("family", False, "ply"), ("hm-even", True, "obj")]
        self.configs = [MeshConfig(s, _mesh_params(s, rng), q, f) for s, q, f in plan]
        spec = dict(n_r=self.grid[0], n_theta=self.grid[1])
        self.references = {
            c: build_mesh(c.surface(), SamplingSpec(quotient=c.quotient, **spec))
            for c in self.configs
        }
        self.jobs = [self._job(c, i) for i, c in enumerate(self.configs)]

    def _job(self, config: MeshConfig, index: int) -> Job:
        path = os.path.join(self.work, f"mesh{index}.{config.fmt}")
        argv = ["generate", config.selector, *config.params, "--out", path,
                "--format", config.fmt]
        if self.grid != (129, 256):
            argv += ["--nr", str(self.grid[0]), "--ntheta", str(self.grid[1])]
        if config.quotient:
            argv.append("--quotient")
        ref = self.references[config]

        def run():
            result = cli_call(argv)
            reader = henneberg.meshing.read_obj if config.fmt == "obj" else henneberg.meshing.read_ply
            result.extra = reader(path)
            return result

        def check(result):
            payload = result.payload
            if (payload["vertices"], payload["faces"]) != (len(ref.vertices), len(ref.faces)):
                return f"reported {payload['vertices']} vertices / {payload['faces']} faces"
            mesh = result.extra
            for what in ("vertices", "normals", "faces"):
                got, want = getattr(mesh, what), getattr(ref, what)
                if got.shape != want.shape or got.tobytes() != want.astype(got.dtype).tobytes():
                    return f"{config.fmt} read-back {what} differ from the reference"
            return None

        kind = f"generate-{'quotient-' if config.quotient else ''}{config.fmt}"
        label = " ".join(["generate", config.selector, *config.params, "--format", config.fmt]
                         + ["--quotient"] * config.quotient)
        return Job(kind, label, run, check, path)

    def warmup(self) -> list[Job]:
        return [self._job(c, i) for i, c in enumerate(self.configs) if c.quotient]


# ---------------------------------------------------------------------------
# period_solve
# ---------------------------------------------------------------------------


def _search_job(n_radial: int, n_angular: int) -> Job:
    argv = ["search-m1", "--n-radial", str(n_radial), "--n-angular", str(n_angular)]

    def check(result):
        payload = result.payload
        if not payload["minimizers"] or not payload["all_henneberg"]:
            return f"{len(payload['minimizers'])} minimizers, all_henneberg={payload['all_henneberg']}"
        return None

    return Job(f"search-{n_radial}x{n_angular}", " ".join(argv), lambda: cli_call(argv), check)


class PeriodSolve:
    """Searches, continuations, and verifications; no meshing."""

    #: the family-gauge start: H2 with the same branch-pair multiset
    START = {"r1": 1.0, "r2": 1.0, "r3": 1.0, "theta2": math.pi / 3,
             "theta3": -math.pi / 3, "beta": math.pi / 2}

    def __init__(self, rng: random.Random, work: str, small: bool = False):
        self.small = small
        self.tracer = None  # set once the timed passes start
        self.start = os.path.join(work, "start.json")
        with open(self.start, "w") as fh:
            json.dump(self.START, fh)
        self.grids = ((9, 12), (13, 16)) if small else ((33, 48), (65, 96))
        self.jobs = self._deck(rng)

    def search_jobs(self) -> list[Job]:
        """The search jobs of one deck: the default grid and the large one."""
        return [_search_job(*g) for g in self.grids]

    def _verify_hm(self, m: int) -> Job:
        argv = ["verify", "hm", "--m", str(m)]

        def check(result):
            payload = result.payload
            iso = payload["isometries"]
            if not payload["pass"] or iso["count"] != 4 * m + 4 or not iso["all_pass"]:
                return f"pass={payload['pass']}, {iso['count']} isometries, all_pass={iso['all_pass']}"
            return None

        return Job("verify-hm", " ".join(argv), lambda: cli_call(argv), check)

    def _verify_family(self, theta2: float) -> Job:
        argv = ["verify", "family", "--theta2", _fmt(theta2)]

        def check(result):
            payload = result.payload
            return None if payload["pass"] else "family report does not pass"

        return Job("verify-family", " ".join(argv), lambda: cli_call(argv), check)

    def _continue_family(self, theta2: float) -> Job:
        want = family_theta2(theta2).moduli_point()
        argv = ["continue", "--from", self.start, "--r1", _fmt(want.r1), "--r2", _fmt(want.r2)]

        def check(result):
            p = result.payload
            dev = max(abs(p["r3"] - want.r3), abs(p["theta2"] - want.theta2),
                      abs(p["theta3"] - want.theta3))
            if dev >= 1e-8:
                return f"continuation misses the family at theta2={theta2!r} by {dev:.2e}"
            self._mark_ok()
            return None

        return Job("continue-family", f"continue --r1 {argv[4]} --r2 {argv[6]}",
                   lambda: cli_call(argv), check)

    def _continue_readme(self) -> Job:
        argv = ["continue", "--r1", "1.05", "--r2", "1.0"]

        def check(result):
            p = result.payload
            if max(math.hypot(*p["F"]), abs(p["G"])) >= 1e-10 or abs(p["det_jacobian"]) <= 1e-6:
                return f"residuals F={p['F']} G={p['G']} det={p['det_jacobian']}"
            self._mark_ok()
            return None

        return Job("continue-readme", " ".join(argv), lambda: cli_call(argv), check)

    def _mark_ok(self):
        if self.tracer is not None:
            self.tracer.mark_ok("period.continue_from")

    def _deck(self, rng: random.Random) -> list[Job]:
        small, large = self.grids
        if self.small:
            jobs = [_search_job(*small), _search_job(*large), self._verify_hm(2),
                    self._verify_family(_family_angle(rng)),
                    self._continue_family(_family_angle(rng, both_branches=False)),
                    self._continue_readme()]
        else:
            jobs = [_search_job(*small) for _ in range(8)] + [_search_job(*large)]
            jobs += [self._verify_hm(m) for m in range(1, 9)]
            jobs += [self._verify_family(_family_angle(rng)) for _ in range(12)]
            jobs += [self._continue_family(_family_angle(rng, both_branches=False))
                     for _ in range(16)]
            jobs.append(self._continue_readme())
        return jobs

    def warmup(self) -> list[Job]:
        return [self._verify_hm(1), self._verify_family(math.pi / 3),
                self._continue_readme(), _search_job(*self.grids[0])]


# ---------------------------------------------------------------------------
# the bjorling deck
# ---------------------------------------------------------------------------


def _expected_cusps(m: Fraction) -> int:
    """Cusps of equator_curve(m): m+1 for even m, 2m+2 for odd m, and
    4k+2 for m = 1/(2k)."""
    if m.denominator == 1:
        return int(m) + 1 if m % 2 == 0 else 2 * int(m) + 2
    return 2 * m.denominator + 2


class BjorlingCusps:
    """``bjorling`` for 3..12 cusps and the astroid, two of them also
    with ``--out``, plus the library's cusp counting."""

    N_U, N_V = 64, 9  # the CLI's default grid

    def __init__(self, rng: random.Random, work: str, small: bool = False):
        self.work = work
        self.small = small
        self.tracer = None  # set once the timed passes start
        self.targets = ["3", "6"] if small else [str(n) for n in range(3, 13)] + ["astroid"]
        # --out on 3 cusps to OBJ and on 6 to PLY: 6 keeps the known
        # non-finite-normals failure in the deck, and 9..12 cusps would take
        # up to 3x as long
        self.out_targets = {"3": "obj", "6": "ply"}
        self.jobs = self._deck(rng)

    def _bjorling(self, target: str, fmt: str | None, index: int) -> Job:
        argv = ["bjorling", "--astroid"] if target == "astroid" else ["bjorling", "--cusps", target]
        label = " ".join(argv)
        path = None
        if fmt is not None:
            path = os.path.join(self.work, f"patch{index}.{fmt}")
            argv += ["--out", path]
            label += f" --out {fmt}"
        n_vertices = self.N_U * self.N_V

        def run():
            result = cli_call(argv)
            if path is not None:
                reader = henneberg.meshing.read_obj if fmt == "obj" else henneberg.meshing.read_ply
                result.extra = reader(path)
            return result

        def check(result):
            payload = result.payload
            cusps = 4 if target == "astroid" else int(target)
            if payload["cusps"] != cusps or not payload["sup_error"] <= 1e-6:
                return f"cusps={payload['cusps']}, sup_error={payload['sup_error']}"
            if path is not None and len(result.extra.vertices) != n_vertices:
                return f"mesh reads back with {len(result.extra.vertices)} vertices, not {n_vertices}"
            return None

        kind = "bjorling-out" if fmt else "bjorling"
        return Job(kind, label, run, check, path)

    def _cusp_count(self, curve, expected: int, label: str, **options) -> Job:
        def check(count):
            if count != expected:
                return f"{count} cusps, expected {expected}"
            if self.tracer is not None:
                self.tracer.mark_ok("geometry.cusp_count")
            return None

        return Job("cusp-count", label,
                   lambda: henneberg.geometry.cusp_count(curve, **options), check)

    def _equator(self, m: Fraction) -> Job:
        return self._cusp_count(equator_curve(m), _expected_cusps(m), f"cusp_count(equator_curve({m}))")

    def _circle(self, radius: float) -> Job:
        # constant speed makes every sample a local minimum to refine; the
        # smallest sample count keeps this one job near 0.6 s, not 2.4 s
        circle = circle_curve(radius)
        return self._cusp_count(circle.point, 0, f"cusp_count(circle r={radius:.4g}, callable)",
                                n_samples=1024)

    def _deck(self, rng: random.Random) -> list[Job]:
        jobs = []
        for i, target in enumerate(self.targets):
            jobs.append(self._bjorling(target, None, i))
            if target in self.out_targets:
                jobs.append(self._bjorling(target, self.out_targets[target], i))
        equators = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 4)]
        jobs += [self._equator(m) for m in (equators[:1] if self.small else equators)]
        jobs.append(self._circle(rng.uniform(0.5, 2.0)))
        return jobs

    def warmup(self) -> list[Job]:
        return [self._bjorling("3", None, 0), self._bjorling("3", "obj", 0),
                self._equator(Fraction(2))]


class MeshBjorling:
    """The ``generate`` deck and the ``bjorling`` deck played as one.

    The two run in one workload so that each run can be long enough to
    outlast the slow spells of a shared machine (see README.md).
    """

    def __init__(self, rng: random.Random, work: str, small: bool = False):
        self.parts = (MeshExport(rng, work, small), BjorlingCusps(rng, work, small))
        self.jobs = [job for part in self.parts for job in part.jobs]

    @property
    def tracer(self):
        return self.parts[0].tracer

    @tracer.setter
    def tracer(self, tracer):
        for part in self.parts:
            part.tracer = tracer

    def warmup(self) -> list[Job]:
        return [job for part in self.parts for job in part.warmup()]


WORKLOADS = {
    "mesh_bjorling": MeshBjorling,
    "period_solve": PeriodSolve,
}
