"""The benchmark's three workloads and their correctness gates.

Each workload builds its inputs from the seed alone, times its set-up,
measures for the requested seconds, checks its outputs and returns an
:class:`Outcome`.  See ``perfbench/README.md`` for why each workload
exists and which layer metrics each should move.

* ``apply_blocked`` -- closed loop, one client: ``matmat`` then
  ``rmatmat`` of one k=16 block at ``dssdd`` on a single simulated
  MI300X engine, (Nt, Nd, Nm) = (256, 24, 768).  The hot path; never
  touches comm, checksums, CG or serving.
* ``grid_solve`` -- closed loop: one block-CG MAP solve per op on a 2x2
  pairwise, ABFT-checked grid engine.  The only workload through
  collectives, checksums and the pairwise segment GEMM.
* ``serve_mixed`` -- open loop: Poisson arrivals at a fixed rate into a
  coalescing :class:`SolverService`; 40% matvec, 40% rmatvec, 20% solve.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.inverse.cg as cg_mod
from repro.comm.grid import ProcessGrid
from repro.core.error_model import relative_error_bound
from repro.core.matvec import FFTMatvec
from repro.core.operator import ForwardOperator, GaussNewtonHessian, IdentityOperator
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.serve.cache import EngineCache
from repro.serve.service import SolveOptions, SolverService

from tracer import Tracer

__all__ = ["WORKLOADS", "SIZES", "Outcome"]

# Problem sizes.  "tiny" exists for the benchmark's own smoke tests.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "apply_blocked": {
        "full": dict(nt=256, nd=24, nm=768, k=16),
        "tiny": dict(nt=16, nd=4, nm=24, k=4),
    },
    "grid_solve": {
        "full": dict(nt=64, nd=16, nm=192, k=8),
        "tiny": dict(nt=8, nd=4, nm=12, k=2),
    },
    "serve_mixed": {
        "full": dict(nt=64, nd=24, nm=96, rate=20.0),
        "tiny": dict(nt=8, nd=4, nm=12, rate=40.0),
    },
}

APPLY_CONFIG = "dssdd"  # the paper's mixed configuration
SOLVE_CONFIG = "ddddd"
# Regularised MAP solve: 20-30 CG iterations at the full sizes.  Short
# enough that a grid run holds ~18 solves (the host's speed swings by
# tens of percent within seconds, so the median needs samples) and that
# a served solve holds the single executor for tens of milliseconds.
NOISE_STD = 10.0
RIDGE = 10.0
TOL = 1e-6
MAXITER = 200
# Untraced runs build their set-up this many times before the measured
# ops and as many times after them, and report the median of all: one
# build takes well under a second while the host's speed drifts over tens
# of seconds, so samples from both ends of the run steady the figure.
SETUP_REPS = 3
SERVE_TENANTS = 4
# A served request counts toward goodput only if answered correctly
# within this limit, measured from its due send time.
SERVE_LATENCY_LIMIT_S = 1.0
# The open-loop generator is behind schedule when it sends a request
# later than this after its due time; such a run is reported invalid.
LOADGEN_LAG_LIMIT_S = 0.1
# Matvecs and rmatvecs (each) served at APPLY_CONFIG after the measured
# windows and checked against the direct convolution.
SERVE_PROBES = 4


@dataclass
class Outcome:
    """What one benchmark run measured and checked.

    ``metrics`` holds the values the final JSON line carries (end-to-end
    metrics untraced, per-layer metrics traced); ``report`` the
    workload's own named figures with their sample counts, printed for
    people; ``problems`` one line per failed gate or invalid condition.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    model: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


# -- shared helpers -------------------------------------------------------------
_PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")


def tail_percentile(n: int) -> Optional[int]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p
    return None


def _percentile_ms(values: List[float], p: float) -> float:
    return float(np.percentile(np.asarray(values), p) * 1e3)


def timed_setup(build: Callable[[], Any], reps: int) -> Tuple[List[float], Any]:
    """Run ``build`` ``reps`` times; return the wall times and the last
    result.  Earlier results are dropped before the next build so only
    one full-size engine is ever resident (callers drop theirs too)."""
    times = []
    state = None
    for _ in range(max(1, reps)):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return times, state


def closed_loop(
    op: Callable[[int], Any],
    seconds: float,
    check: Callable[[int, Any], None],
    tracer: Optional[Tracer] = None,
) -> Tuple[List[float], List[float]]:
    """Run ``op(i)`` back to back for ``seconds``; return the wall times
    of the untraced ops and of the traced ops.

    ``check(i, result)`` runs outside the timed region.  With a tracer,
    ops alternate in pairs -- two untraced, two traced -- so both sets
    see the same machine conditions and the same inputs (workloads
    cycle through at most two); without one, every op is untraced.
    """
    untraced: List[float] = []
    traced: List[float] = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < (1 if tracer is None else 4) or time.perf_counter() < deadline:
        on = tracer is not None and (i // 2) % 2 == 1
        with tracer if on else contextlib.nullcontext():
            if on:
                tracer.begin_op()
            t0 = time.perf_counter()
            result = op(i)
            elapsed = time.perf_counter() - t0
        (traced if on else untraced).append(elapsed)
        check(i, result)
        i += 1
    return untraced, traced


def max_rel_err(got: List[np.ndarray], want: List[np.ndarray]) -> float:
    return max(
        float(np.linalg.norm(g - w) / np.linalg.norm(w)) for g, w in zip(got, want)
    )


def eq6_gate(
    out: Outcome,
    matrix: BlockTriangularToeplitz,
    probes: Dict[bool, List[Tuple[np.ndarray, np.ndarray]]],
    pr: int = 1,
    pc: int = 1,
) -> float:
    """Gate ``APPLY_CONFIG`` probe columns against the direct block
    convolution, within the Eq. 6 bound; return the max relative error.

    ``probes[adjoint]`` holds (input column, output column) pairs of F
    (``adjoint=False``) or F*.  Every workload reports this error of its
    own engine path at the paper's mixed configuration, so ``rel_err``
    means the same thing on each and is dominated by the single-precision
    casts, not by float64 rounding order.
    """
    kappa = matrix.condition_number_hat()
    errs = []
    for adjoint, pairs in probes.items():
        reference = matrix.rmatvec_reference if adjoint else matrix.matvec_reference
        err = max_rel_err([g for _, g in pairs], [reference(x) for x, _ in pairs])
        bound = relative_error_bound(
            APPLY_CONFIG, matrix.nt, matrix.nm, matrix.nd,
            kappa=kappa, adjoint=adjoint, pr=pr, pc=pc,
        )
        if not err <= bound:
            out.fail(
                f"{'F*' if adjoint else 'F'} {APPLY_CONFIG} rel_err {err:.3e} "
                f"exceeds the Eq. 6 bound {bound:.3e}"
            )
        errs.append(err)
    return max(errs)


def layer_metrics(
    tracer: Tracer,
    n_ops: int,
    overhead: float,
    model: Dict[str, float],
    steady_allocs: int = 0,
    serve: Optional[Dict[str, float]] = None,
    cache: Optional[Tuple[float, float, float]] = None,
    lag_ms_max: float = 0.0,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, per traced op (``cache`` is per traced
    flush).  Layers the workload never reaches read 0."""
    n = max(1, n_ops)
    secs = tracer.layer_seconds()
    outer = tracer.outermost

    def ms(layer: str) -> Tuple[float, str]:
        return (secs[layer] * 1e3 / n, "ms/op")

    def attr_sum(layer: str, key: str) -> float:
        return sum(float(s.attrs.get(key, 0.0)) for s in outer(layer))

    cg_spans = outer("cg")
    checks = [s for s in outer("checksum") if "verify" in s.name]
    serve = serve or {}
    hits, misses, evictions = cache or (0.0, 0.0, 0.0)
    out: Dict[str, Tuple[float, str]] = {
        "reorder.ms": ms("reorder"),
        "reorder.bytes": (attr_sum("reorder", "bytes") / n, "B/op"),
        "fft.ms": ms("fft"),
        "fft.calls": (len(outer("fft")) / n, "calls/op"),
        "blas.ms": ms("blas"),
        "blas.gflop": (attr_sum("blas", "flops") / 1e9 / n, "GFLOP/op"),
        "phases.ms": ms("phases"),
        "engine.self_ms": ms("engine"),
        "workspace.steady_allocs": (float(steady_allocs), "count"),
        "checksum.ms": ms("checksum"),
        "checksum.checks": (len(checks) / n, "checks/op"),
        "comm.ms": ms("comm"),
        "comm.ops": (len(outer("comm")) / n, "ops/op"),
        "comm.bytes": (attr_sum("comm", "bytes") / n, "B/op"),
        "cg.self_ms": ms("cg"),
        "cg.iters": (
            statistics.mean(s.attrs["iters"] for s in cg_spans) if cg_spans else 0.0,
            "iters/solve",
        ),
        "serve.queue_ms_p50": (serve.get("queue_ms_p50", 0.0), "ms"),
        "serve.flush_ms_p50": (serve.get("flush_ms_p50", 0.0), "ms"),
        "serve.flushes": (serve.get("flushes_per_s", 0.0), "1/s"),
        "serve.mean_batch": (serve.get("mean_batch", 0.0), "req/flush"),
        "serve.busy_frac": (serve.get("busy_frac", 0.0), "frac"),
        "cache.hits": (hits, "1/flush"),
        "cache.misses": (misses, "1/flush"),
        "cache.evictions": (evictions, "1/flush"),
        "loadgen.lag_ms_max": (lag_ms_max, "ms"),
    }
    for phase in _PHASES:
        out[f"model.{phase}_ms"] = (model.get(phase, 0.0) * 1e3, "ms/op")
    out["model.ratio"] = (model.get("ratio", 0.0), "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out


class _ModelProbe:
    """Modeled (SimClock) time per phase between two points, per op."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.now0 = clock.now
        self.phase0 = {p: clock.phase_total(p) for p in _PHASES}

    def per_op(self, n_ops: int, measured_op_s: float) -> Dict[str, float]:
        """Modeled seconds per op by phase, and the modeled/measured ratio
        against ``measured_op_s``, the mean measured (untraced) op time."""
        n = max(1, n_ops)
        out = {p: (self.clock.phase_total(p) - self.phase0[p]) / n for p in _PHASES}
        out["ratio"] = (self.clock.now - self.now0) / n / measured_op_s
        return out


def end_to_end(
    out: Outcome, setup_s: float, op_times: List[float], good: int, rel_err: float
) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of an untraced run."""
    return {
        "setup_s": (setup_s, "s"),
        "p50_ms": (_percentile_ms(op_times, 50), "ms"),
        "good_frac": (good / max(1, out.attempted), "frac"),
        "rel_err": (rel_err, "1"),
    }


# -- apply_blocked ------------------------------------------------------------------
def apply_blocked(seed: int, seconds: float, trace: bool, size: str = "full") -> Outcome:
    p = SIZES["apply_blocked"][size]
    nt, nd, nm, k = p["nt"], p["nd"], p["nm"], p["k"]
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz(rng.standard_normal((nt, nd, nm)))
    inputs = [rng.standard_normal((nt, nm, k)) for _ in range(2)]

    # Caller-owned outputs plus the engine's arena: the allocation-free
    # steady state the workspace API exists for.
    out_d, out_m = np.empty((nt, nd, k)), np.empty((nt, nm, k))

    def op(eng: FFTMatvec, M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        D = eng.matmat(M, config=APPLY_CONFIG, out=out_d)
        return D, eng.rmatmat(D, config=APPLY_CONFIG, out=out_m)

    def build() -> FFTMatvec:
        eng = FFTMatvec(
            matrix,
            device=SimulatedDevice("MI300X"),
            workspace=True,
            backend="numpy",
            reduction="fast",
        )
        op(eng, inputs[0])
        return eng

    out = Outcome()
    setup_times, eng = timed_setup(build, 1 if trace else SETUP_REPS)
    first: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def check(i: int, res: Tuple[np.ndarray, np.ndarray]) -> None:
        # Every op on an input must reproduce that input's first result
        # bit for bit (and so must the traced ops: tracing changes nothing).
        out.attempted += 1
        ref = first.get(i % 2)
        if ref is None:
            first[i % 2] = tuple(a.copy() for a in res)
            if not all(np.all(np.isfinite(a)) for a in res):
                out.fail(f"op {i}: non-finite output")
        elif not all(np.array_equal(a, b) for a, b in zip(res, ref)):
            out.fail(f"op {i}: output differs from the first op on the same input")

    probe = _ModelProbe(eng.device.clock)
    allocs0 = eng.workspace.stats().alloc_count
    tracer = Tracer() if trace else None
    times, traced = closed_loop(lambda i: op(eng, inputs[i % 2]), seconds, check, tracer)
    if tracer is not None:
        out.tracer = tracer
        out.model = probe.per_op(len(times) + len(traced), sum(times) / len(times))
        out.metrics = layer_metrics(
            tracer,
            len(traced),
            statistics.median(traced) / statistics.median(times),
            out.model,
            steady_allocs=eng.workspace.stats().alloc_count - allocs0,
        )

    # Gate: probe columns of the first input against the direct block
    # convolution, within the Eq. 6 bound.
    M, (D, Mo) = inputs[0], first[0]
    cols = [0, k - 1]
    rel_err = eq6_gate(out, matrix, {
        False: [(M[:, :, j], D[:, :, j]) for j in cols],
        True: [(D[:, :, j], Mo[:, :, j]) for j in cols],
    })

    if not trace:
        eng = None
        setup_times += timed_setup(build, SETUP_REPS)[0]
    setup_s = statistics.median(setup_times)
    n = len(times)
    tail = tail_percentile(n)
    out.report = {
        "setup_s": (setup_s, "s", len(setup_times)),
        "apply_ms_p50": (_percentile_ms(times, 50), "ms", n),
        "rhs_per_s": (2 * k * n / sum(times), "1/s", n),
        "rel_err": (rel_err, "1", 2 * len(cols)),
        "failed_frac": (out.failed / max(1, out.attempted), "1", out.attempted),
    }
    if tail is not None:
        out.report[f"apply_ms_p{tail}"] = (_percentile_ms(times, tail), "ms", n)
    if not trace:
        out.metrics = end_to_end(out, setup_s, times, out.attempted - out.failed, rel_err)
    return out


# -- grid_solve ------------------------------------------------------------------------
def grid_solve(seed: int, seconds: float, trace: bool, size: str = "full") -> Outcome:
    p = SIZES["grid_solve"][size]
    nt, nd, nm, k = p["nt"], p["nd"], p["nm"], p["k"]
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz(rng.standard_normal((nt, nd, nm)))
    data = rng.standard_normal((nt, nd, k))
    probe_in = rng.standard_normal((nt, nm, k))

    def build():
        grid = ProcessGrid(2, 2)
        eng = ParallelFFTMatvec(
            matrix,
            grid,
            spec="MI300X",
            reduction="pairwise",
            validate="abft",
            workspace=True,
            backend="numpy",
        )
        hess = GaussNewtonHessian(
            ForwardOperator(eng, config=SOLVE_CONFIG),
            noise_std=NOISE_STD,
            reg=RIDGE * IdentityOperator((nt, nm)),
        )
        hess.apply_block(rhs(eng))  # first warm result: one Hessian action
        return grid, eng, hess

    def rhs(eng) -> np.ndarray:
        return eng.rmatmat(data, config=SOLVE_CONFIG) / NOISE_STD**2

    def solve(eng, hess) -> Tuple[np.ndarray, Any]:
        b = rhs(eng)
        return b, cg_mod.block_conjugate_gradient(
            hess.apply_block, b, tol=TOL, maxiter=MAXITER
        )

    def arena_allocs(eng) -> int:
        arenas = [e.workspace for e in eng.engines.values()] + [eng.workspace]
        return sum(a.stats().alloc_count for a in arenas)

    out = Outcome()
    setup_times, (grid, eng, hess) = timed_setup(build, 1 if trace else SETUP_REPS)
    first: List[Tuple[np.ndarray, Any]] = []

    def check(i: int, res: Tuple[np.ndarray, Any]) -> None:
        out.attempted += 1
        b, r = res
        if not r.all_converged:
            out.fail(f"solve {i}: not converged in {r.iterations} iterations")
            return
        if not first:
            first.append(res)
            return
        r0 = first[0][1]
        if r.iterations != r0.iterations or not np.array_equal(r.X, r0.X):
            out.fail(
                f"solve {i}: {r.iterations} iterations / solution bits differ "
                f"from the first solve ({r0.iterations} iterations)"
            )

    probe = _ModelProbe(grid.clock)
    allocs0 = arena_allocs(eng)
    tracer = Tracer() if trace else None
    times, traced = closed_loop(lambda i: solve(eng, hess), seconds, check, tracer)
    if tracer is not None:
        out.tracer = tracer
        out.model = probe.per_op(len(times) + len(traced), sum(times) / len(times))
        out.metrics = layer_metrics(
            tracer,
            len(traced),
            statistics.median(traced) / statistics.median(times),
            out.model,
            steady_allocs=arena_allocs(eng) - allocs0,
        )

    # Gates: the true residual of the (bitwise-repeated) solution meets
    # the tolerance, one probe apply equals a single-device pairwise
    # engine bit for bit, and probe F and F* applies of the grid engine at
    # the paper's mixed configuration meet Eq. 6 with the 2x2 grid terms.
    if first:
        b, r = first[0]
        resid = np.linalg.norm((b - hess.apply_block(r.X)).reshape(-1, k), axis=0)
        rel = resid / np.linalg.norm(b.reshape(-1, k), axis=0)
        out.attempted += 1
        if not np.all(rel <= TOL):
            out.fail(f"true residual {float(np.max(rel)):.3e} exceeds tol {TOL:g}")
    got = eng.matmat(probe_in, config=SOLVE_CONFIG)
    single = FFTMatvec(matrix, reduction="pairwise", backend="numpy")
    out.attempted += 1
    if not np.array_equal(got, single.matmat(probe_in, config=SOLVE_CONFIG)):
        out.fail("grid probe apply differs from the single-device pairwise engine")
    cols = list(range(k))
    fwd = eng.matmat(probe_in, config=APPLY_CONFIG)
    adj = eng.rmatmat(data, config=APPLY_CONFIG)
    out.attempted += 2
    rel_err = eq6_gate(out, matrix, {
        False: [(probe_in[:, :, j], fwd[:, :, j]) for j in cols],
        True: [(data[:, :, j], adj[:, :, j]) for j in cols],
    }, pr=2, pc=2)

    if not trace:
        grid = eng = hess = None
        setup_times += timed_setup(build, SETUP_REPS)[0]
    setup_s = statistics.median(setup_times)
    n = len(times)
    out.report = {
        "setup_s": (setup_s, "s", len(setup_times)),
        "solve_s_p50": (statistics.median(times), "s", n),
        "cg_iters": (float(first[0][1].iterations) if first else 0.0, "1", n),
        "rel_err": (rel_err, "1", 2 * len(cols)),
        "failed_frac": (out.failed / max(1, out.attempted), "1", out.attempted),
    }
    if not trace:
        out.metrics = end_to_end(out, setup_s, times, out.attempted - out.failed, rel_err)
    return out


# -- serve_mixed ------------------------------------------------------------------------
@dataclass
class _Req:
    due: float  # seconds after the window start
    kind: str
    tenant: str
    payload: np.ndarray


def _arrivals(rng, seconds: float, rate: float, nt: int, nd: int, nm: int) -> List[_Req]:
    """Poisson arrivals over ``seconds``; kinds in exact 2:2:1 blocks
    (matvec : rmatvec : solve), shuffled within each block."""
    reqs: List[_Req] = []
    kinds: List[str] = []
    t = float(rng.exponential(1.0 / rate))
    while t < seconds:
        if not kinds:
            kinds = list(rng.permutation(["matvec", "matvec", "rmatvec", "rmatvec", "solve"]))
        kind = str(kinds.pop())
        shape = (nt, nm) if kind == "matvec" else (nt, nd)
        tenant = f"tenant{int(rng.integers(SERVE_TENANTS))}"
        reqs.append(_Req(t, kind, tenant, rng.standard_normal(shape)))
        t += float(rng.exponential(1.0 / rate))
    return reqs


@dataclass
class _Window:
    """Per-request results of one open-loop window."""

    reqs: List[_Req]
    results: List[Optional[np.ndarray]]
    latency: List[float]  # seconds from due time to answer (nan if failed)
    lag: List[float]  # seconds the generator sent after the due time
    errors: List[Optional[str]]
    wall: float
    cpu: float  # process CPU seconds, both threads


async def _drive(service: SolverService, handle: str, reqs: List[_Req]) -> _Window:
    n = len(reqs)
    win = _Window(reqs, [None] * n, [float("nan")] * n, [0.0] * n, [None] * n, 0.0, 0.0)
    opts = SolveOptions(noise_std=NOISE_STD, ridge=RIDGE, tol=TOL, maxiter=MAXITER)
    calls = {
        "matvec": lambda r: service.matvec(handle, r.payload, tenant=r.tenant),
        "rmatvec": lambda r: service.rmatvec(handle, r.payload, tenant=r.tenant),
        "solve": lambda r: service.solve(handle, r.payload, tenant=r.tenant, options=opts),
    }
    cpu0 = time.process_time()
    t0 = time.perf_counter()

    async def one(i: int, r: _Req) -> None:
        try:
            win.results[i] = await calls[r.kind](r)
        except Exception as exc:  # noqa: BLE001 - every failure is a counted miss
            win.errors[i] = f"{type(exc).__name__}: {exc}"
            return
        win.latency[i] = time.perf_counter() - (t0 + r.due)

    tasks = []
    for i, r in enumerate(reqs):
        wait = t0 + r.due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        win.lag[i] = time.perf_counter() - (t0 + r.due)
        tasks.append(asyncio.get_running_loop().create_task(one(i, r)))
    await asyncio.gather(*tasks)
    win.wall = time.perf_counter() - t0
    win.cpu = time.process_time() - cpu0
    return win


def serve_mixed(seed: int, seconds: float, trace: bool, size: str = "full") -> Outcome:
    p = SIZES["serve_mixed"][size]
    nt, nd, nm, rate = p["nt"], p["nd"], p["nm"], p["rate"]
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz(rng.standard_normal((nt, nd, nm)))
    warm = rng.standard_normal((nt, nm))
    window = seconds / 2 if trace else seconds
    windows_reqs = [_arrivals(rng, window, rate, nt, nd, nm) for _ in range(2 if trace else 1)]
    probe_in = {
        False: [rng.standard_normal((nt, nm)) for _ in range(SERVE_PROBES)],
        True: [rng.standard_normal((nt, nd)) for _ in range(SERVE_PROBES)],
    }

    async def start() -> Tuple[SolverService, str]:
        service = SolverService(EngineCache(1 << 30), deterministic=True)
        handle = service.register(matrix)
        await service.matvec(handle, warm, tenant="tenant0")
        return service, handle

    async def setup_only() -> float:
        t0 = time.perf_counter()
        service, _ = await start()
        elapsed = time.perf_counter() - t0
        await service.close()
        return elapsed

    tracer = Tracer() if trace else None

    async def measured_run():
        t0 = time.perf_counter()
        service, handle = await start()
        elapsed = time.perf_counter() - t0
        wins = [await _drive(service, handle, windows_reqs[0])]
        await service.drain()
        cache = (service.cache.stats(),)
        if tracer is not None:
            with tracer:
                wins.append(await _drive(service, handle, windows_reqs[1]))
                await service.drain()
            cache += (service.cache.stats(),)
        apply = {False: service.matvec, True: service.rmatvec}

        async def probe(adjoint: bool, x: np.ndarray):
            try:
                return await apply[adjoint](handle, x, config=APPLY_CONFIG, tenant="tenant0")
            except Exception as exc:  # noqa: BLE001 - a failed probe is a counted miss
                return f"{type(exc).__name__}: {exc}"

        probes = {
            adjoint: [(x, await probe(adjoint, x)) for x in xs]
            for adjoint, xs in probe_in.items()
        }
        await service.close()
        return elapsed, wins, cache, probes

    setups = [asyncio.run(setup_only()) for _ in range(0 if trace else SETUP_REPS - 1)]
    gc.collect()
    last_setup, wins, cache, probes = asyncio.run(measured_run())
    setups.append(last_setup)

    # Gates: every apply bitwise equal to a sequential apply on an
    # independent engine, every solve within tolerance; refused, expired
    # or raised requests are failures.  Probe applies at the paper's mixed
    # configuration meet Eq. 6.
    out = Outcome()
    ref = FFTMatvec(matrix, workspace=True, backend="numpy")
    hess = GaussNewtonHessian(
        ForwardOperator(ref, config=SOLVE_CONFIG),
        noise_std=NOISE_STD,
        reg=RIDGE * IdentityOperator((nt, nm)),
    )
    good = 0
    for w_idx, win in enumerate(wins):
        for i, r in enumerate(win.reqs):
            out.attempted += 1
            got = win.results[i]
            tag = f"window {w_idx} request {i} ({r.kind})"
            if got is None:
                out.fail(f"{tag}: {win.errors[i]}")
                continue
            if r.kind == "solve":
                b = ref.rmatvec(r.payload, config=SOLVE_CONFIG) / NOISE_STD**2
                rel = float(np.linalg.norm(b - hess.apply(got)) / np.linalg.norm(b))
                if not rel <= TOL:
                    out.fail(f"{tag}: true residual {rel:.3e} exceeds tol {TOL:g}")
                    continue
            else:
                apply = ref.matvec if r.kind == "matvec" else ref.rmatvec
                if not np.array_equal(got, apply(r.payload, config=SOLVE_CONFIG)):
                    out.fail(f"{tag}: differs from a sequential apply")
                    continue
            if win.latency[i] <= SERVE_LATENCY_LIMIT_S:
                good += 1
    answered = {}
    failed0 = out.failed
    for adjoint, pairs in probes.items():
        out.attempted += 1
        errors = [g for _, g in pairs if isinstance(g, str)]
        if errors:
            out.fail(f"{'F*' if adjoint else 'F'} {APPLY_CONFIG} probe: {errors[0]}")
        else:
            answered[adjoint] = pairs
    rel_err = eq6_gate(out, matrix, answered) if answered else float("nan")
    # A passing probe check is good: probes are sent after the measured
    # window and carry no latency limit.
    good += len(probes) - (out.failed - failed0)

    if not trace:
        setups += [asyncio.run(setup_only()) for _ in range(SETUP_REPS)]
    setup_s = statistics.median(setups)
    lag_max = max((max(w.lag) for w in wins if w.lag), default=0.0)
    if lag_max > LOADGEN_LAG_LIMIT_S:
        out.problems.append(
            f"invalid run: load generator fell {lag_max * 1e3:.1f} ms behind "
            f"schedule (limit {LOADGEN_LAG_LIMIT_S * 1e3:.0f} ms)"
        )

    main = wins[0]
    lat = [x for x in main.latency if x == x]
    n_sent = len(main.reqs)
    tail = tail_percentile(len(lat))
    out.report = {
        "setup_s": (setup_s, "s", len(setups)),
        "serve_p50_ms": (_percentile_ms(lat, 50) if lat else float("nan"), "ms", len(lat)),
        "serve_goodput": (good / max(1, out.attempted), "1", out.attempted),
        "offered_rps": (n_sent / window, "1/s", n_sent),
        "rel_err": (rel_err, "1", 2 * SERVE_PROBES),
        "failed_frac": (out.failed / max(1, out.attempted), "1", out.attempted),
        "loadgen_lag_ms_max": (lag_max * 1e3, "ms", sum(len(w.lag) for w in wins)),
    }
    if tail is not None:
        out.report[f"serve_p{tail}_ms"] = (_percentile_ms(lat, tail), "ms", len(lat))

    if tracer is not None:
        flushes = tracer.outermost("serve")
        traced_win = wins[1]
        queue = [q for s in flushes for q in s.attrs["queue_s"]]
        # Cache lookups during the traced window, per flush.
        c0, c1 = cache
        per_flush = max(1, len(flushes))
        serve_stats = {
            "queue_ms_p50": _percentile_ms(queue, 50) if queue else 0.0,
            "flush_ms_p50": _percentile_ms([s.duration for s in flushes], 50)
            if flushes
            else 0.0,
            "flushes_per_s": len(flushes) / traced_win.wall,
            "mean_batch": statistics.mean(s.attrs["k"] for s in flushes) if flushes else 0.0,
            "busy_frac": sum(s.duration for s in flushes) / traced_win.wall,
        }
        out.tracer = tracer
        # Open-loop latency mostly measures queueing, so the overhead is
        # CPU time per request, traced over untraced.
        out.metrics = layer_metrics(
            tracer,
            len(traced_win.reqs),
            (traced_win.cpu / max(1, len(traced_win.reqs)))
            / (main.cpu / max(1, len(main.reqs))),
            {},
            serve=serve_stats,
            cache=tuple(
                (getattr(c1, f) - getattr(c0, f)) / per_flush
                for f in ("hits", "misses", "evictions")
            ),
            lag_ms_max=lag_max * 1e3,
        )
    if not trace:
        out.metrics = end_to_end(out, setup_s, lat, good, rel_err)
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "apply_blocked": apply_blocked,
    "grid_solve": grid_solve,
    "serve_mixed": serve_mixed,
}

