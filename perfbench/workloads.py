"""The four workloads: one op each, its output checks, and the closed loop.

An op calls the package's public API on one generated input and returns
what the checks need.  The checks run outside the op's timing.  An op ends
in one of five outcomes:

* ``verified``: the output passed every check;
* ``refused``: a typed error (an exception class of the ``rigidity``
  package) on an input of a class the seed code cannot handle (gen.py
  names them: generic paths and three charpoly shapes);
* ``error``: a typed or other exception on an input that should succeed;
* ``overrun``: the op passed its deadline;
* ``wrong``: the output failed a check.

Only verified ops count in ``ops_per_s``.  Any ``wrong`` outcome makes the
run incorrect.
"""

import gc
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
from rigidity import flatsurf, symdom

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_runs"
CLI_REFERENCE = HERE / "cli_reference.json"
UNTRACED_CLI = "import sys; from rigidity.cli import main; sys.exit(main())"


class WrongResult(Exception):
    """An output failed one of the benchmark's checks."""


class DeadlineExceeded(Exception):
    """An op ran past its deadline."""


def _expect(cond, message):
    if not cond:
        raise WrongResult(message)


def child_env():
    """Environment for child interpreters: the package comes from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def is_typed_error(exc):
    return type(exc).__module__.startswith("rigidity.")


def monodromy_radius(P, epsilon):
    """Tracking radius as ``rigidity smoothness`` picks it, via public calls:
    min(0.01, epsilon / 4, half the smallest nonzero branch point)."""
    radius = min(0.01, epsilon / 4.0)
    disc = P.discriminant()
    if disc.is_zero:
        raise symdom.BranchPointOnCircle("discriminant vanishes identically")
    deflated = disc.shift_down(disc.valuation)
    if deflated.degree > 0:
        bad = np.roots(list(reversed(deflated.complex_coeffs())))
        radius = min(radius, 0.5 * float(min(abs(b) for b in bad)))
    return radius


class Workload:
    """A workload makes its inputs as rounds of ops with the same mix; the
    loop always runs whole rounds.

    ``tail_percentile`` is the highest percentile with about ten ops
    beyond it in a run of 22 s.  It is fixed per
    workload, so that a slow run reports the same percentile.  It falls
    inside the class of the costliest slots, away from the class edges.
    """

    pool_rounds = 8

    def make_pool(self, rnd):
        return [self.make_round(rnd) for _ in range(self.pool_rounds)]

    def refusable(self, item):
        return False


class FlatCensus(Workload):
    """Saddle-connection census, cylinders and rotation profile of origamis."""

    name = "flat_census"
    deadline_s = 20.0
    tail_percentile = 90

    def __init__(self, tiny=False):
        self.tiny = tiny
        self.primitive = {}
        self.directions = gen.upper_directions(gen.CYLINDER_DIRECTION_BOUND)

    def make_round(self, rnd):
        items = gen.census_round(rnd, self.tiny)
        for _, _, L in items:
            if L not in self.primitive:
                self.primitive[L] = gen.primitive_count(L)
        return items

    def op(self, item):
        _, origami, L = item
        census = flatsurf.saddle_connections(origami, L)
        decompositions = [flatsurf.cylinder_decomposition(origami, d)
                          for d in self.directions]
        profile = flatsurf.profile_nonconstancy(
            flatsurf.horizontal_multicurve(origami), gen.PROFILE_SAMPLES)
        return census, decompositions, profile

    def check(self, item, result):
        label, origami, L = item
        census, decompositions, profile = result
        n = origami.n
        _expect(len(census) == n * self.primitive[L],
                f"{label}: census size {len(census)} != {n} * {self.primitive[L]}")
        lengths = [sc.length for sc in census]
        _expect(all(a <= b for a, b in zip(lengths, lengths[1:])),
                f"{label}: census not sorted by length")
        forward = Counter((sc.start, sc.end, sc.holonomy) for sc in census)
        backward = Counter((sc.end, sc.start, -sc.holonomy) for sc in census)
        _expect(forward == backward, f"{label}: a connection lacks its reverse")
        for dec in decompositions:
            _expect(abs(dec.total_area() - n) <= 1e-9,
                    f"{label}: cylinders in {dec.direction} cover {dec.total_area()}")
        # horizontal core curves: one per cycle of h, weight 1, holonomy = its length
        cycles, seen = [], set()
        for s in range(1, n + 1):
            length = 0
            while s not in seen:
                seen.add(s)
                s = origami.h(s)
                length += 1
            if length:
                cycles.append(length)

        def value(theta):
            rot = complex(math.cos(theta / 2), math.sin(theta / 2))
            return sum(1.0 * abs((rot * m).real) for m in cycles)

        values = [value(2 * math.pi * j / gen.PROFILE_SAMPLES)
                  for j in range(gen.PROFILE_SAMPLES)]
        _expect(abs(profile.max - max(values)) <= 1e-9, f"{label}: profile max")
        _expect(abs(profile.min - min(values)) <= 1e-9, f"{label}: profile min")
        spread = max(abs(v - values[0]) for v in values)
        _expect(abs(abs(value(profile.witness_theta) - values[0]) - spread) <= 1e-9,
                f"{label}: profile witness")
        return {}

    def warm_up(self):
        origami = gen.data.origami("l_shape_3")
        self.op(("warm-up", origami, 3))


class BranchPaths(Workload):
    """The stages of ``rigidity smoothness`` on polynomial matrix paths."""

    name = "branch_paths"
    deadline_s = 60.0
    tail_percentile = 80

    def __init__(self, tiny=False):
        self.tiny = tiny

    def make_round(self, rnd):
        return gen.path_round(rnd, self.tiny)

    def op(self, item):
        _, path, _ = item
        P = symdom.charpoly_path(path)
        polygon_k = symdom.newton_puiseux_index(P).K
        radius = monodromy_radius(P, gen.BRANCH_EPSILON)
        monodromy_k = symdom.monodromy_branch_index(P, radius)
        report = symdom.smoothness_report(path, gen.BRANCH_EPSILON)
        return polygon_k, monodromy_k, report

    def check(self, item, result):
        label = item[0]
        polygon_k, monodromy_k, report = result
        # V(t)* V(t) is Hermitian for real t, so by Rellich's theorem every
        # eigenvalue branch is analytic in t: K = 1, and the top eigenvalue
        # at t = 0 is positive, so the distance keeps K = 1 as well
        _expect(polygon_k == monodromy_k == 1,
                f"{label}: polygon K {polygon_k}, monodromy K {monodromy_k}, expected 1")
        _expect(report.K == 1, f"{label}: distance-level K {report.K}, expected 1")
        return {"fit_residual": report.fit_residual}

    def refusable(self, item):
        return item[2]

    def warm_up(self):
        self.op(("warm-up", gen.data.matrix_path("diagonal_radial"), False))


class PuiseuxCharpolys(Workload):
    """The charpoly-mode analysis on polynomials with known branch index."""

    name = "puiseux_charpolys"
    deadline_s = 20.0
    tail_percentile = 95
    pool_rounds = 16

    def __init__(self, tiny=False):
        self.tiny = tiny

    def make_round(self, rnd):
        return gen.charpoly_round(rnd, self.tiny)

    def op(self, item):
        P = item[1]
        polygon_k = symdom.newton_puiseux_index(P).K
        radius = monodromy_radius(P, gen.CHARPOLY_EPSILON)
        monodromy_k = symdom.monodromy_branch_index(P, radius)
        report = symdom.smoothness_report_from_charpoly(P, gen.CHARPOLY_EPSILON)
        return polygon_k, monodromy_k, report

    def check(self, item, result):
        label, _, K, distance_k, _ = item
        polygon_k, monodromy_k, report = result
        _expect(polygon_k == monodromy_k == K,
                f"{label}: polygon K {polygon_k}, monodromy K {monodromy_k}, "
                f"construction K {K}")
        _expect(report.K == distance_k,
                f"{label}: distance-level K {report.K}, expected {distance_k}")
        return {"fit_residual": report.fit_residual}

    def refusable(self, item):
        return item[4]

    def warm_up(self):
        self.op(("warm-up", gen.data.charpoly("sqrt_branch"), 2, 4, False))


class CliSession(Workload):
    """``rigidity`` invocations, one child process at a time."""

    name = "cli_session"
    deadline_s = 60.0
    tail_percentile = 75

    def __init__(self, tiny=False, tracer=None):
        self.tiny = tiny
        self.tracer = tracer
        self.grid = gen.cli_grid()
        self.reference = json.loads(CLI_REFERENCE.read_text(encoding="utf-8"))
        self.peak_child_rss_kb = 0
        RUN_DIR.mkdir(exist_ok=True)
        self.out_csv = RUN_DIR / "cli-profile.csv"
        self.stdout_path = RUN_DIR / "cli-stdout.txt"
        self.stderr_path = RUN_DIR / "cli-stderr.txt"
        self.spans_path = RUN_DIR / "cli-spans.json"

    def make_pool(self, rnd):
        return gen.cli_session(rnd, self.tiny)

    def argv(self, key):
        return [str(self.out_csv) if a == "@OUT" else a for a in self.grid[key]]

    def run_child(self, argv, traced):
        """Run one child to completion; returns (exit code, stdout bytes)."""
        if traced:
            cmd = [sys.executable, str(HERE / "cli_entry.py"), str(self.spans_path)]
        else:
            cmd = [sys.executable, "-c", UNTRACED_CLI]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd + argv, cwd=ROOT, env=child_env(), stdout=out,
                                    stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, self.stdout_path.read_bytes()

    def op(self, key):
        traced = self.tracer is not None and self.tracer.op is not None
        if traced:
            self.spans_path.unlink(missing_ok=True)
        code, stdout = self.run_child(self.argv(key), traced)
        if traced and self.spans_path.exists():
            self.tracer.adopt(json.loads(self.spans_path.read_text(encoding="utf-8")))
        return code, stdout

    def check(self, key, result):
        code, stdout = result
        ref = self.reference[key]
        _expect(code == ref["exit"], f"{key}: exit code {code}, expected {ref['exit']}")
        digest = hashlib.sha256(stdout).hexdigest()
        _expect(digest == ref["stdout_sha256"], f"{key}: stdout differs from the reference")
        payload = json.loads(stdout) if stdout else {}
        if key.startswith("horocycle/"):
            _expect(abs(payload["distance"] - math.log(2)) <= 1e-9,
                    f"{key}: distance {payload['distance']} is not log 2")
        if "fit_residual" in payload:
            return {"fit_residual": payload["fit_residual"]}
        return {}

    def warm_up(self):
        self.run_child(["horocycle"], traced=False)


WORKLOADS = {w.name: w for w in (FlatCensus, BranchPaths, PuiseuxCharpolys, CliSession)}


def make_workload(name, tiny=False, tracer=None):
    """The workload object; only the CLI session needs the tracer, to start
    traced children and adopt their spans."""
    if name == CliSession.name:
        return CliSession(tiny, tracer)
    return WORKLOADS[name](tiny)


def make_pool(workload, seed):
    """The run's inputs, drawn from one seeded stream."""
    return workload.make_pool(random.Random(seed))


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


# A shared machine changes speed: on a 2-core shared VM, by up to a factor
# of two within tens of seconds.  The loop therefore times a fixed
# reference kernel between ops; a round's speed factor is the median kernel
# time in the round over REFERENCE_S, its time on the quiet machine, and
# every latency of the round is divided by factor ** SPEED_EXPONENT.  The
# ops slow down less than the kernel under load from outside: over 69 runs
# of 22 s (sets of ten seeds; three on branch_paths, two on cli_session,
# one on the others) the exponent 0.7 gave the smallest worst-case spread
# of ops_per_s across seeds, about 10 %, against 16 % at exponent 1 and
# 27 % with raw times.  run.py keeps the
# process and its children on one CPU, so the kernel runs where the ops
# run.  The kernel uses the standard library only, so no change to the
# package can change its time.
REFERENCE_S = 0.004
SPEED_EXPONENT = 0.7
CALIBRATE_EVERY_S = 0.5


def reference_kernel():
    """Fixed pure-Python work: exact fractions, integers and a dict."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 89 + 1, i % 97 + 2)
        table[i % 101] = table.get(i % 101, 0) + i * i
    return acc, table


def speed_sample():
    """Median time of three runs of the reference kernel, with the cyclic
    garbage collector off, so that the size of the benchmark's own heap
    does not enter the sample."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def run_loop(workload, pool, seconds, tracer=None, max_rounds=None):
    """Closed loop with one client over the pool's rounds.

    Ops start back to back, with a speed sample at the start of each round
    and after every CALIBRATE_EVERY_S of op time.  The loop runs whole
    rounds until the time spent inside ops reaches ``seconds``, or for
    ``max_rounds`` rounds.  Returns records (item label, outcome, latency,
    info, round, speed factor of the round).
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    busy = 0.0
    rounds = 0
    try:
        while True:
            samples = [speed_sample()]
            since_sample = 0.0
            in_round = []
            for item in pool[rounds % len(pool)]:
                in_round.append(_one_op(workload, item, tracer, len(records) + len(in_round)))
                busy += in_round[-1][2]
                since_sample += in_round[-1][2]
                if since_sample >= CALIBRATE_EVERY_S:
                    samples.append(speed_sample())
                    since_sample = 0.0
            factor = statistics.median(samples) / REFERENCE_S
            records += [r + (rounds, factor) for r in in_round]
            rounds += 1
            if (busy >= seconds) if max_rounds is None else (rounds >= max_rounds):
                return records
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rounds_of(records):
    return records[-1][4] + 1 if records else 0


def speed_scale(factor):
    return factor ** SPEED_EXPONENT


def scaled_latencies(records):
    """Op latencies at the reference machine speed."""
    return [r[2] / speed_scale(r[5]) for r in records]


def ops_per_second(records):
    """Verified ops per second spent in ops, at the reference machine speed."""
    return sum(r[1] == "verified" for r in records) / sum(scaled_latencies(records))


def _label(item):
    return item if isinstance(item, str) else item[0]


def _one_op(workload, item, tracer, op_id):
    info = {}
    sid = tracer.begin_op(op_id) if tracer else None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, workload.deadline_s)
    try:
        result = workload.op(item)
        outcome = None
    except DeadlineExceeded:
        outcome = "overrun"
    except Exception as exc:  # every failure of the program is recorded, none stops the run
        outcome = "refused" if workload.refusable(item) and is_typed_error(exc) else "error"
        info = {"exception": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
        if tracer:
            tracer.end_op(sid)
    if outcome is None:
        try:
            info = workload.check(item, result)
            outcome = "verified"
        except WrongResult as exc:
            outcome = "wrong"
            info = {"detail": str(exc)}
    return _label(item), outcome, latency, info
