"""End-to-end and per-layer benchmark of the ``heunlie`` command.

Usage (from the repository root)::

    python3 bench/run.py --workload spin-audit --seed 1 --seconds 30 --trace 0

One client drives ``heunlie.cli.main`` in-process in a closed loop: the next
op starts when the previous one has returned, and each op runs once.  Ops
come from the seed and ``--seconds`` alone (see ``Workload``).  Every op's exit code and report are checked, outside
the timed region.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run, followed by an untraced replay of
its first third for the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` beside this file for the workloads, the
metrics and what each should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import inspect
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "reference_digests.json"

SETUP_REPEATS = 5
MIN_OPS = 9
# The tail latency is the op time with exactly this many ops beyond it.
TAIL_BEYOND = 10
TRACED_MODULES = ("algpoly", "sl2rep", "heunop", "distsol", "greenssf", "cli")
# cli keeps its payload builders out of __all__; they are still its layer
CLI_TRACED = ("main", "run_sweep", "payload_analyze", "payload_spectrum",
              "payload_distsol", "payload_green", "payload_expand")
DIGIT_LIMIT_MESSAGE = "Exceeds the limit (4300 digits) for integer string conversion"
VERSION_FIELD = re.compile(r'"version": "[^"]*",\s*')
INT_LITERAL = re.compile(r"\d+")


# -- op generation -------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _small_rational(rng: random.Random, *, nonzero=False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4)))
        if x or not nonzero:
            return x


def _a_value(rng: random.Random) -> Fraction:
    while True:
        a = _small_rational(rng, nonzero=True)
        if a != 1:
            return a


def _param_flags(*values) -> list:
    # the --name=value spelling keeps negative literals unambiguous
    names = ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon")
    return [f"--{k}={v}" for k, v in zip(names, values, strict=True)]


def _random_params(rng: random.Random) -> list:
    return _param_flags(_a_value(rng), *(_small_rational(rng) for _ in range(6)))


def _spin_op(rng: random.Random, kind: str, n: int) -> Op:
    if kind == "spectrum":
        # alpha = -n under the parameter constraint keeps degree n invariant
        beta, gamma, delta = (_small_rational(rng) for _ in range(3))
        alpha = Fraction(-n)
        epsilon = alpha + beta + 1 - gamma - delta
        params = _param_flags(_a_value(rng), _small_rational(rng), alpha, beta, gamma,
                              delta, epsilon)
        return Op(kind, ("spectrum", f"--n={n}", *params))
    if kind == "sweep":
        a1, a2 = _a_value(rng), _a_value(rng)
        while a2 == a1:
            a2 = _a_value(rng)
        # the a = 1 point yields an in-stream error row, which is expected output
        grid = f"a=1,{a1},{a2}"
        return Op(kind, ("sweep", f"--n={n}", f"--grid={grid}", *_random_params(rng)))
    return Op(kind, ("analyze", f"--n={n}", *_random_params(rng)))


def _recurrence_op(rng: random.Random, l: int, K: int) -> Op:
    argv = ("distsol", f"--n={rng.randint(2, 8)}", f"--l={l}", f"--K={K}",
            f"--E={_small_rational(rng, nonzero=True)}", *_random_params(rng))
    return Op("distsol", argv)


def _kernel_op(rng: random.Random, kind: str, sigma: int, tau: int, rho: int) -> Op:
    argv = (kind, f"--rho={rho}", f"--sigma={sigma}", f"--tau={tau}",
            f"--E={_small_rational(rng, nonzero=True)}", f"--lambda={rng.randint(-2, 2)}",
            *_random_params(rng))
    return Op(kind, argv)


@dataclass(frozen=True)
class Workload:
    """A run's ops are a stratified sample of size combinations.

    The combinations come in classes, one per kind of op (one per ``l`` for
    ``distsol``, where ``l`` decides most refusals), each sorted by a rough
    cost model.  The run's ops are split evenly over the classes, and
    each class is cut into as many equal strata as it gets ops.  Each op gets
    a seeded combination from its stratum and seeded parameters, and the ops
    run in seeded order.  Every combination stays possible, but every seed
    draws the same kinds and nearly the same sizes, so the run's cost does
    not drift with the seed.  The op count depends on ``--seconds`` and the
    seed-commit cost per op (``op_s``) only, never on the measured speed, so
    a seed always yields the same ops."""

    name: str
    classes: tuple  # of cost-sorted tuples of combinations
    make: object  # (rng, combination) -> Op
    warmup: tuple
    tiny_classes: tuple
    op_s: float  # mean wall seconds per op at the seed commit, single-threaded BLAS

    def op_count(self, seconds: float, tiny: bool = False) -> int:
        if tiny:
            return MIN_OPS
        return max(MIN_OPS, round(seconds / self.op_s))

    def ops(self, seed: int, seconds: float, tiny: bool = False) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        classes = self.tiny_classes if tiny else self.classes
        count = self.op_count(seconds, tiny)
        ops = []
        for i, combos in enumerate(classes):
            k = min(len(combos), count // len(classes) + (i < count % len(classes)))
            ops += [self.make(rng, rng.choice(combos[len(combos) * j // k:
                                                     len(combos) * (j + 1) // k]))
                    for j in range(k)]
        rng.shuffle(ops)
        return ops


_SPIN_KINDS = ("analyze", "spectrum", "sweep")
_P_WARM = tuple(_param_flags(2, Fraction(1, 3), -2, Fraction(-1, 2), Fraction(1, 3),
                             Fraction(1, 2), Fraction(-7, 3)))


def _kernel_class(kind, sigmas, taus, rhos) -> tuple:
    return tuple(sorted(((kind, s, t, r) for s in sigmas for t in taus for r in rhos),
                        key=lambda c: ((c[1] - c[3]) * c[1] * c[2], c)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spin-audit",
            tuple(tuple((k, n) for n in range(8, 65)) for k in _SPIN_KINDS),
            lambda rng, combo: _spin_op(rng, *combo),
            (("analyze", "--n=2", *_P_WARM),
             ("spectrum", "--n=2", *_P_WARM),
             ("sweep", "--n=2", "--grid=a=1,2", *_P_WARM)),
            tuple(tuple((k, n) for n in range(2, 5)) for k in _SPIN_KINDS),
            0.66,
        ),
        Workload(
            "recurrence-audit",
            tuple(tuple((l, K) for K in range(64, 1025)) for l in range(1, 5)),
            lambda rng, combo: _recurrence_op(rng, *combo),
            (("distsol", "--n=2", "--l=1", "--K=8", *_P_WARM),),
            tuple(tuple((l, K) for K in range(8, 25)) for l in range(1, 5)),
            0.55,
        ),
        Workload(
            "kernel-norms",
            tuple(_kernel_class(k, range(6, 17), range(4, 13), (1, 2, 3))
                  for k in ("green", "ssf")),
            lambda rng, combo: _kernel_op(rng, *combo),
            (("green", "--rho=1", "--sigma=3", "--tau=2", *_P_WARM),
             ("ssf", "--rho=1", "--sigma=3", "--tau=2", *_P_WARM)),
            tuple(_kernel_class(k, (3, 4, 5), (2, 3), (1, 2)) for k in ("green", "ssf")),
            0.77,
        ),
    )
}


# -- running one op --------------------------------------------------------------


def execute(cli, argv):
    """Run ``cli.main`` once with captured streams; returns (exit, out, err, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a malformed command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed op, not a harness failure
            rc = f"crash: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


# -- output checks ------------------------------------------------------------------


def report_digest(text: str) -> str:
    """SHA-256 of the report bytes with the commit-dependent version field removed."""
    return hashlib.sha256(VERSION_FIELD.sub("", text).encode()).hexdigest()[:32]


def op_key_hash(op: Op) -> str:
    return hashlib.sha256(op.key.encode()).hexdigest()[:16]


def op_digest(rc, out: str, err: str) -> str:
    if rc == 0:
        return report_digest(out)
    return f"exit {rc}: {hashlib.sha256(err.encode()).hexdigest()[:16]}"


def _discrepancy_errors(rows, CRat) -> list:
    return [
        f"discrepancy {row['name']}: residual != paper - oracle"
        for row in rows
        if CRat.parse(row["residual"]) != CRat.parse(row["paper"]) - CRat.parse(row["oracle"])
    ]


def self_check(kind: str, out: str, CRat) -> list:
    """Exact self-consistency of one report; returns the problems found."""
    if kind == "sweep":
        problems = []
        for line in out.splitlines():
            row = json.loads(line)
            if row["point"]["a"] == "1":
                if row.get("error", {}).get("type") != "ValueError":
                    problems.append("sweep: the a = 1 point has no ValueError row")
            elif "report" not in row:
                problems.append(f"sweep: point {row['point']} has no report")
            else:
                problems += _discrepancy_errors(row["report"]["discrepancies"], CRat)
        return problems
    report = json.loads(out)
    if kind in ("analyze", "spectrum"):
        return _discrepancy_errors(report["discrepancies"], CRat)
    if kind == "distsol":
        return [
            f"distsol {branch} residual at k={row['k']} is {row['value']!r}"
            for branch in ("real", "imag")
            for row in report[branch].get("residuals", ())
            if row["value"] != "0"
        ]
    if kind in ("green", "ssf"):
        kp, omega = CRat.parse(report["kp"]), CRat.parse(report["omega_at_0"])
        if CRat.parse(report["hs_norm_sq"]) != CRat(kp.abs2() * omega.abs2()):
            return ["green: hs_norm_sq != |kp|^2 |omega_at_0|^2"]
        return []
    raise ValueError(f"no check for kind {kind!r}")


@dataclass
class Outcome:
    ok: bool  # a correct report was produced
    correct: bool  # the behaviour is the expected one (known defects included)
    problem: str = ""


def check(op: Op, rc, out: str, err: str, digests: dict, CRat) -> Outcome:
    expected = digests.get(op_key_hash(op))
    if rc == 0 and expected and expected.startswith("exit "):
        expected = None  # a refusal was recorded; a report now gets the self-checks
    if expected is not None and op_digest(rc, out, err) != expected:
        return Outcome(False, False, f"digest mismatch (exit {rc})")
    if rc != 0:
        if rc == 2 and op.kind == "distsol" and DIGIT_LIMIT_MESSAGE in err:
            return Outcome(False, True, "known defect: 4300-digit int->str limit")
        return Outcome(False, False, f"exit {rc}: {err.strip()[:200]}")
    try:
        problems = self_check(op.kind, out, CRat)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
    if problems:
        return Outcome(False, False, "; ".join(problems[:3]))
    return Outcome(True, True)


def load_digests(workload: str) -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


# -- tracing ---------------------------------------------------------------------------


class Tracer:
    """Wraps public functions and aggregates spans per op: calls, inclusive
    and self time.  Self time is a span minus the spans of wrapped callees."""

    def __init__(self):
        self.stack = []  # child time accumulated by each open span
        self.active = {}  # open spans per name, so recursion is counted once
        self.per_op = {}
        self.patched = []

    def begin_op(self):
        self.per_op = {}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            self.active[name] = self.active.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self.stack.pop()
                self.active[name] -= 1
                rec = self.per_op.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[2] += dt - child
                if not self.active[name]:
                    rec[1] += dt
                if self.stack:
                    self.stack[-1] += dt

        return traced

    def install(self, package):
        """Patch each traced function in its module and under every name a
        sibling module bound with ``from ... import``."""
        modules = [getattr(package, m) for m in TRACED_MODULES] + [package]
        for mod_name in TRACED_MODULES:
            mod = getattr(package, mod_name)
            names = CLI_TRACED if mod_name == "cli" else getattr(mod, "__all__", ())
            for name in names:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self.wrap(f"{mod_name}.{name}", fn)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapped)
                            self.patched.append((other, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self.patched):
            setattr(mod, attr, fn)
        self.patched = []


# -- set-up time ---------------------------------------------------------------------------

_SETUP_CHILD = """
import contextlib, io, json, sys, time
t_start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import heunlie.cli as cli
t_import = time.perf_counter()
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"warm-up op failed: {argv}")
t_warm = time.perf_counter()
print(json.dumps([t_start, t_import, t_warm]))
"""


class SetupSampler:
    """Times fresh interpreters: start, ``import heunlie.cli`` and one warm-up
    op of each kind.  Called with the share of the loop's ops done after each
    op, it spreads its samples over the run, so one slow stretch of a shared
    machine does not set the median."""

    def __init__(self, workload: Workload):
        self.warmup = json.dumps(workload.warmup)
        self.samples = []

    def __call__(self, done: float) -> None:
        while len(self.samples) < SETUP_REPEATS and done >= len(self.samples) / SETUP_REPEATS:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), self.warmup],
                                  capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
            t_start, t_import, t_warm = json.loads(proc.stdout)
            self.samples.append((t_warm - t0, t_start - t0, t_import - t_start,
                                 t_warm - t_import))

    def medians(self) -> dict:
        self(float("inf"))
        med = [statistics.median(col) for col in zip(*self.samples)]
        return {"setup_s": med[0], "interpreter_ms": 1e3 * med[1],
                "import_ms": 1e3 * med[2], "warmup_ms": 1e3 * med[3]}


# -- the closed loop ---------------------------------------------------------------------------


@dataclass
class Record:
    op: Op
    seconds: float
    outcome: Outcome
    out_bytes: int = 0
    max_digits: int = 0
    spans: dict = field(default_factory=dict)


def closed_loop(cli, CRat, ops, digests: dict, tracer=None, between=None) -> list:
    """Run the ops back to back, each once.  ``between(done)`` runs after
    each op with the share of ops done, outside op time."""
    records = []
    for op in ops:
        gc.collect()  # each op starts on a clean heap, as in a fresh process
        if tracer:
            tracer.begin_op()
        rc, out, err, dt = execute(cli, op.argv)
        rec = Record(op, dt, check(op, rc, out, err, digests, CRat), len(out.encode()))
        if tracer:
            rec.spans = tracer.per_op
            rec.max_digits = max(map(len, INT_LITERAL.findall(out)), default=0)
        records.append(rec)
        if between:
            between(len(records) / len(ops))
    return records


def end_to_end(records: list, setup: dict) -> tuple:
    reports = [r for r in records if r.outcome.ok]
    # every op counts at the time the client waited, refused ones too: they
    # sit in the top strata, and leaving them out would move the median;
    # ops_ok_ratio keeps a faster refusal from passing as a gain
    lat = sorted(1e3 * r.seconds for r in records)
    tail_rank = len(lat) - 1 - TAIL_BEYOND if len(lat) > TAIL_BEYOND else len(lat) - 1
    ok_ratio = len(reports) / len(records)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "reports_per_s": (len(reports) / sum(r.seconds for r in records), "1/s"),
        "latency_ms.p50": (statistics.median(lat), "ms"),
        "latency_ms.tail": (lat[tail_rank], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_ok_ratio": (ok_ratio, "ratio"),
    }
    detail = {"reports": len(reports), "ops": len(records),
              "tail_percentile": round(100 * tail_rank / max(1, len(lat) - 1), 1),
              "ops_beyond_tail": len(lat) - 1 - tail_rank,
              "ops_failed_ratio": 1 - ok_ratio}
    return metrics, detail


def _per_report(reports, names, field_index):
    return sum(r.spans.get(n, (0, 0.0, 0.0))[field_index] for r in reports for n in names)


def per_layer(records: list, overhead_s: float, cpu_per_wall: float, setup: dict) -> dict:
    reports = [r for r in records if r.outcome.ok] or records
    count = len(reports)

    def calls(name):
        return (statistics.median(r.spans.get(name, (0,))[0] for r in reports), "calls/report")

    def ms(*names):
        return (1e3 * _per_report(reports, names, 1) / count, "ms/report")

    def self_ms(*names):
        return (1e3 * _per_report(reports, names, 2) / count, "ms/report")

    payloads = [f"cli.{n}" for n in CLI_TRACED if n.startswith("payload_")]
    return {
        "heunop.qes_matrix.calls_per_report": calls("heunop.qes_matrix"),
        "heunop.qes_matrix.ms": ms("heunop.qes_matrix"),
        "algpoly.op_apply.calls_per_report": calls("algpoly.op_apply"),
        "algpoly.op_apply.ms": ms("algpoly.op_apply"),
        "sl2rep.uea_expand.calls_per_report": calls("sl2rep.uea_expand"),
        "sl2rep.uea_expand.ms": ms("sl2rep.uea_expand"),
        "algpoly.op_compose.calls_per_report": calls("algpoly.op_compose"),
        "heunop.verify_theorem1.ms": ms("heunop.verify_theorem1"),
        "heunop.indicial_exponents.ms": ms("heunop.indicial_exponents"),
        "heunop.es_discrepancies.self_ms": self_ms("heunop.es_discrepancies"),
        "distsol.forward.ms": ms("distsol.forward_real", "distsol.forward_imag"),
        "distsol.residual_check.ms": ms("distsol.residual_check"),
        "distsol.closed_form_roots.ms": ms("distsol.closed_form_roots_real",
                                           "distsol.closed_form_roots_imag"),
        "distsol.weight_expansion.ms": ms("distsol.weight_expansion"),
        "cli.payload_self_ms": self_ms(*payloads),
        "cli.render_ms": self_ms("cli.main"),
        "cli.output_bytes": (statistics.mean(r.out_bytes for r in reports), "bytes/report"),
        "cli.max_int_digits": (max(r.max_digits for r in records), "digits"),
        "greenssf.kp_constant.calls_per_report": calls("greenssf.kp_constant"),
        "greenssf.kp_constant.ms": ms("greenssf.kp_constant"),
        "greenssf.green_kernel.ms": ms("greenssf.green_kernel"),
        "greenssf.hs_norm_sq.self_ms": self_ms("greenssf.hs_norm_sq"),
        "setup.interpreter_ms": (setup["interpreter_ms"], "ms"),
        "setup.import_ms": (setup["import_ms"], "ms"),
        "setup.warmup_ms": (setup["warmup_ms"], "ms"),
        "process.cpu_per_wall": (cpu_per_wall, "ratio"),
        "trace.overhead_ms": (1e3 * overhead_s, "ms/op"),
    }


# -- environment ---------------------------------------------------------------------------


def _openblas() -> dict:
    import ctypes

    import numpy

    info = {"numpy": numpy.__version__}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter and config:
                    getter.argtypes, config.argtypes = [], []
                    getter.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    info.update(openblas=config().decode(), openblas_threads=getter())
                    return info
    return info


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    commit = "unknown"
    if (ROOT / ".git").exists():  # a bare checkout must not report an enclosing repo
        with contextlib.suppress(OSError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **_openblas(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "HEUNLIE_THREADS": os.environ.get("HEUNLIE_THREADS"),
        "commit": commit,
    }


# -- entry point ---------------------------------------------------------------------------


def load_program():
    """Import the checkout's own ``heunlie`` from ``src``, never an installed one,
    with one BLAS thread."""
    if not (SRC / "heunlie" / "cli.py").is_file():
        sys.exit(f"bench: no heunlie sources under {SRC}; run from a full checkout")
    # One BLAS thread, here and in the set-up children: the program's matrices
    # are at most 65 x 65, and a pool thread per core, spinning beside the
    # client on a small shared machine, made the same op's time vary by a
    # fifth from one run to the next.  It must be set before numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import heunlie
    import heunlie.cli
    from heunlie.algpoly import CRat

    return heunlie, heunlie.cli, CRat


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--save", metavar="FILE", help="also write the full result as JSON")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package, cli, CRat = load_program()
    workload = WORKLOADS[args.workload]
    digests = load_digests(workload.name)

    setup = SetupSampler(workload)
    setup(0.0)
    for argv_ in workload.warmup:
        rc, _, err, _ = execute(cli, argv_)
        if rc != 0:
            sys.exit(f"bench: warm-up op {argv_} failed with exit {rc}: {err.strip()}")

    ops = workload.ops(args.seed, args.seconds, tiny=args.tiny)
    if args.trace:
        tracer = Tracer()
        tracer.install(package)
        try:
            records = closed_loop(cli, CRat, ops, digests, tracer, setup)
        finally:
            tracer.uninstall()
        # replay the first third of the ops untraced: the tracing overhead
        # and the CPU burned per wall second come from the same ops
        sample = records[:max(1, len(records) // 3)]
        cpu0 = time.process_time()
        replay = closed_loop(cli, CRat, [r.op for r in sample], digests)
        replay_cpu = time.process_time() - cpu0
        replay_s = sum(r.seconds for r in replay)
        overhead_s = (sum(r.seconds for r in sample) - replay_s) / len(sample)
        metrics = per_layer(records, overhead_s, replay_cpu / replay_s, setup.medians())
        detail = {}
        records += replay
    else:
        records = closed_loop(cli, CRat, ops, digests, between=setup)
        metrics, detail = end_to_end(records, setup.medians())

    failures = [r for r in records if not r.outcome.ok]
    wrong = [r for r in failures if not r.outcome.correct]
    for r in failures:
        print(f"# failed op: {r.op.key}: {r.outcome.problem}")
    attempted = len(records)
    print(f"# {workload.name} seed={args.seed} attempted={attempted} failed={len(failures)} "
          f"wrong={len(wrong)} " + " ".join(f"{k}={v}" for k, v in detail.items()))
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:14.6g} {unit}")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.save:
        full = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, detail=detail, env=env)
        Path(args.save).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
