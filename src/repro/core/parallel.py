"""SPMD-simulated multi-GPU FFTMatvec over a 2D process grid.

Rank ``(r, c)`` of a ``pr x pc`` grid owns the ``(Nd_r x Nm_c)``
sub-block of every Toeplitz block: sensors are split across grid rows,
spatial parameters across grid columns.  One F matvec then runs:

1. **pad** — broadcast each column's parameter block down the column's
   ``pr`` ranks (machine-spanning collective; in Phase 1's precision, so
   a single-precision Phase 1 halves the broadcast volume), then
   zero-pad locally;
2-4. local FFT → SBGEMV → IFFT on each rank's sub-block;
5. **unpad** — unpad locally, then *reduce* each row's partial data
   block across the row's ``pc`` contiguous ranks (tree numerics in
   Phase 5's precision — the ``eps5 * log2(pc)`` term of Eq. 6).

The adjoint swaps the roles: broadcast over rows, reduce over columns.

All ranks execute sequentially in-process with genuine per-rank
numerics, and — unlike the original single-clock model — every rank
carries its own simulated device: per-rank compute time is measured on
per-rank clocks, and the wall time charged between collectives is the
**max over ranks**.  Balanced partitions charge exactly one rank's time
(all ranks tie); irregular partitions (caller-supplied ``row_ranges`` /
``col_ranges``, e.g. :func:`repro.comm.partition.skewed_extents`) charge
genuine skew — the slowest rank gates every collective, exactly as a
blocking collective would on the real machine.

Event-timeline execution (paper Sec. 4.2.2, Figure 4)
-----------------------------------------------------
Timing rides the stream/event model of :mod:`repro.util.timing`.  The
blocked :meth:`ParallelFFTMatvec.matmat` / :meth:`~ParallelFFTMatvec.rmatmat`
run a *double-buffered chunk schedule* over two streams:

* the **comm stream** carries the chunk collectives — and *prefetches*
  chunk ``i+1``'s column-broadcast while chunk ``i`` computes;
* the **compute stream** carries the per-rank (max) five-phase pipeline,
  waiting on the prefetched broadcast's event before starting a chunk;
* each chunk's row-reduce waits on that chunk's compute event, and runs
  on the comm stream concurrently with chunk ``i+1``'s compute.

Wall time is the critical path through this dependency graph, realized
on the grid clock at the final sync: whenever a chunk's compute covers
the next chunk's broadcast, the broadcast costs nothing.  A network
model with ``overlap_efficiency < 1`` charges the exposed remainder of
every prefetched collective onto the compute stream (link contention).
``overlap=False`` (constructor or per-call) charges the classic serial
schedule — broadcast → compute → reduce per chunk, one stream — which
reproduces the pre-timeline charge exactly.  **Numerics are identical
in both modes, bitwise**: the schedule only decides what time costs,
never what is computed.

A third **host stream** fuses the dense-operator-assembly host routines
(:class:`~repro.util.timing.HostModel` — generate inputs, save results)
directly into the chunk schedule: constructed with ``host=...``, each
chunk's generate gates its broadcast and each save waits on its reduce,
so host, device and network run fully concurrently and the wall is the
critical path through all three streams.  ``overlap_host=False`` keeps
the two-stream schedule and charges the host total serially after the
final sync — the composition the two-stream model implied (device/net
schedule + host on top), kept as the baseline the three-stream gain is
measured against.  ``host=None`` (default) charges no host work at all.

Deterministic reduction (``reduction="pairwise"``)
--------------------------------------------------
``reduction="pairwise"`` makes the *entire distributed contraction* one
fixed binary tree over global parameter (sensor, for the adjoint)
indices: each rank computes Phase-3 partial panels for the canonical
tree segments of its slice (:mod:`repro.util.pairwise`), the grid
reduce merges segments in the frequency domain
(:meth:`repro.comm.simcomm.SimCommunicator.reduce_segments`), and the
output part's root rank runs the IFFT/unpad epilogue once on the merged
panel.  Because every addition — intra-rank and inter-rank — is an edge
of one tree indexed by *global element position*, the result is
**bitwise identical for any** ``row_ranges`` / ``col_ranges``
partition, any ``max_block_k``, and equal to the single-device pairwise
engine — which lifts the ``min_part=2`` caveat of
:mod:`repro.comm.balance` (single-element parts are safe).  The fast
mode's per-rank IFFT + rank-indexed tree reduce is the throughput path;
pairwise pays a modeled kernel tax and a larger (complex, per-segment)
reduce payload, benchmarked in ``BENCH_determinism.json``.

Blocked collectives
-------------------
Each chunk of at most ``max_block_k`` columns pays **one**
column-broadcast and **one** row-reduce (per grid column/row) instead of
one per vector, so the collective count is ``ceil(k / max_block_k)``.
The broadcast payload is the whole ``(Nt, nm_c, k_c)`` parameter block
in Phase 1's precision — the volume term of the tree cost scales by
``k_c``, the ``log2`` latency trees are paid once per chunk — and the
Phase-5 tree-reduce sums ``(Nt, nd_r, k_c)`` partial blocks elementwise,
so the ``eps5 * log2(pc)`` accumulation term of Eq. 6 applies per column
exactly as in the vector path.  Per-rank compute routes through
``FFTMatvec``'s blocked pipeline.  The vector apply *is* a one-column
chunk with ``deterministic=True``; wider chunks match it to rounding
(GEMM vs GEMV column-accumulation order) — or *bitwise* for every
column with ``deterministic=True``, which swaps each rank's Phase-3
GEMM for per-column batched GEMVs (the serving coalescer's mode).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import Backend, resolve_backend
from repro.comm.grid import ProcessGrid
from repro.comm.partition import check_extents
from repro.comm.simcomm import SimCommunicator
from repro.core.matvec import FFTMatvec, _apply_scope
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import GPUSpec, get_gpu
from repro.util.blocking import (
    check_block,
    check_out_buffer,
    chunk_ranges,
    validate_max_block_k,
)
from repro.util.dtypes import real_dtype
from repro.util.timing import HostModel, SimClock, Stream, Timeline, TimingReport
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

__all__ = ["ParallelFFTMatvec"]

_PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")
# Phases a grid-level timing report may carry: the five device phases
# plus the host stream's generate/save work.
_REPORT_PHASES = _PHASES + ("host",)

# Per-rank spec inputs the constructor accepts: one spec for the whole
# grid, a mapping keyed by (row, col), or a pr x pc nested sequence.
RankSpecs = Union[
    GPUSpec,
    str,
    Mapping[Tuple[int, int], Union[GPUSpec, str]],
    Sequence[Sequence[Union[GPUSpec, str]]],
]


def _normalize_rank_specs(
    spec: Optional[RankSpecs], pr: int, pc: int
) -> Dict[Tuple[int, int], Optional[GPUSpec]]:
    """Resolve the ``spec`` argument to one (possibly None) spec per rank.

    ``None`` disables timing everywhere; anything else must cover every
    rank of the grid — a partially-instrumented grid would charge
    meaningless maxima.
    """

    def resolve(s: Union[GPUSpec, str]) -> GPUSpec:
        return get_gpu(s) if isinstance(s, str) else s

    ranks = [(r, c) for r in range(pr) for c in range(pc)]
    if spec is None:
        return {rc: None for rc in ranks}
    if isinstance(spec, (GPUSpec, str)):
        one = resolve(spec)
        return {rc: one for rc in ranks}
    if isinstance(spec, Mapping):
        missing = [rc for rc in ranks if rc not in spec]
        if missing:
            raise ReproError(
                f"per-rank spec mapping missing ranks {missing} of a {pr}x{pc} grid"
            )
        return {rc: resolve(spec[rc]) for rc in ranks}
    rows = []
    for row in spec:
        if isinstance(row, (GPUSpec, str)) or not hasattr(row, "__iter__"):
            raise ReproError(
                f"per-rank spec sequence must be nested — {pr} rows of "
                f"{pc} specs — not a flat list"
            )
        rows.append(list(row))
    if len(rows) != pr or any(len(row) != pc for row in rows):
        raise ReproError(
            f"per-rank spec sequence must be {pr} rows of {pc} specs"
        )
    return {(r, c): resolve(rows[r][c]) for r, c in ranks}


class ParallelFFTMatvec:
    """Distributed FFTMatvec on a simulated ``pr x pc`` GPU grid.

    Parameters
    ----------
    matrix:
        The *global* block-triangular Toeplitz matrix (or kernel blocks).
    grid:
        Process grid; its clock accumulates wall time (compute max +
        communication critical path).
    spec:
        GPU architecture(s) for the per-rank compute model.  One
        :class:`GPUSpec` (or registry name) instruments every rank
        identically; a mapping keyed by ``(row, col)`` or a ``pr x pc``
        nested sequence builds a *heterogeneous* grid where ranks own
        devices of differing throughput.  Every rank carries a device on
        its own clock; the wall charge between collectives is the max
        over ranks (per-rank skew is genuine).
        :meth:`rank_compute_report` harvests the per-rank clocks, and
        :func:`repro.comm.balance.rebalance_rows` /
        :func:`~repro.comm.balance.rebalance_cols` search new partitions
        against them.
    max_block_k:
        Default chunk width for the blocked :meth:`matmat` /
        :meth:`rmatmat` path (None = all k columns in one chunk).
        Bounds per-rank workspace; each chunk costs one
        broadcast + one reduce.
    overlap:
        Default schedule for the blocked path: ``True`` prefetches each
        chunk's broadcast on the comm stream while the previous chunk
        computes (double buffering); ``False`` charges the serial
        broadcast → compute → reduce schedule.  Numerics are identical.
    reduction:
        ``"fast"`` (default) — vendor accumulation order per rank, tree
        reduce indexed by rank.  ``"pairwise"`` — the fixed-tree
        deterministic mode: results are bitwise identical for any grid
        partition and any ``max_block_k``, and match the single-device
        pairwise engine (see the module docstring).
    host:
        Optional :class:`~repro.util.timing.HostModel` fusing the
        dense-assembly host routines into the blocked schedule: each
        chunk charges ``k_chunk * gen_time`` before (and gating) its
        broadcast and ``k_chunk * save_time`` after its reduce.  With
        the overlapped schedule these ride a third *host* stream (fully
        concurrent with comm + compute); with ``overlap=False`` or
        ``overlap_host=False`` the host total is charged serially on
        top.  ``None`` charges no host work (the historical behavior).
    overlap_host:
        ``False`` restricts overlap to the two-stream comm/compute
        schedule and charges the host total serially after it — the
        baseline charge the three-stream fusion is measured against.
        Ignored when ``host`` is None.
    row_ranges, col_ranges:
        Optional explicit 1-D partitions of the sensor / parameter
        extents (lists of contiguous ``(start, stop)``, one per grid
        row / column).  Defaults to the balanced ceil-based split; pass
        :func:`repro.comm.partition.skewed_extents` to study skew.
    workspace:
        ``True`` gives every rank engine its own
        :class:`~repro.util.workspace.Workspace` arena (registered with
        the rank device's allocator when instrumented) plus a grid-level
        arena for broadcast payloads, receive buffers and reduce
        staging.  The chunk loop then reuses ping-pong payload buffers
        across chunks instead of re-``ascontiguousarray``-ing each one.
        Numerics are bitwise-identical with the arena on or off.
    backend:
        Array backend every rank engine and comm payload runs on — a
        :class:`~repro.backend.Backend` instance, a registry name
        (``"numpy"``/``"cupy"``/``"torch"``), or None for the
        ``REPRO_BACKEND`` / ``auto`` fallback chain.  Gathered results
        are always host float64 regardless of backend.
    validate:
        SDC defense checks, forwarded to every rank engine (see
        :class:`~repro.core.matvec.FFTMatvec`): ``"guard"`` for NaN/Inf
        boundary guards, ``"abft"`` for checksum/energy verification,
        ``"guard+abft"`` or ``True`` for both.  Any enabled mode also
        switches on receive-side payload digests on every grid
        communicator, so collective payloads are covered end to end.
    """

    def __init__(
        self,
        matrix: Union[BlockTriangularToeplitz, np.ndarray],
        grid: ProcessGrid,
        spec: Optional[RankSpecs] = None,
        use_optimized_sbgemv: bool = True,
        max_block_k: Optional[int] = None,
        overlap: bool = True,
        reduction: str = "fast",
        row_ranges: Optional[Sequence[Tuple[int, int]]] = None,
        col_ranges: Optional[Sequence[Tuple[int, int]]] = None,
        workspace: Union[None, bool] = None,
        backend: Union[None, str, Backend] = None,
        host: Optional[HostModel] = None,
        overlap_host: bool = True,
        validate: Union[None, bool, str] = None,
    ) -> None:
        if reduction not in ("fast", "pairwise"):
            raise ReproError(
                f"reduction must be 'fast' or 'pairwise', got {reduction!r}"
            )
        self.reduction = reduction
        if host is not None and not isinstance(host, HostModel):
            raise ReproError(
                f"host must be a HostModel (or None), got {type(host).__name__}"
            )
        self.host = host
        self.overlap_host = bool(overlap_host)
        self.backend = resolve_backend(backend)
        self.matrix = (
            matrix
            if isinstance(matrix, BlockTriangularToeplitz)
            else BlockTriangularToeplitz(np.asarray(matrix))
        )
        self.grid = grid
        self.nt = self.matrix.nt
        self.nd = self.matrix.nd
        self.nm = self.matrix.nm
        if grid.pr > self.nd:
            raise ReproError(
                f"grid has {grid.pr} rows but only {self.nd} sensors to split"
            )
        if grid.pc > self.nm:
            raise ReproError(
                f"grid has {grid.pc} columns but only {self.nm} parameters to split"
            )

        self._row_ranges = (
            check_extents(row_ranges, self.nd, grid.pr, "row_ranges")
            if row_ranges is not None
            else grid.split_extent(self.nd, grid.pr)
        )
        self._col_ranges = (
            check_extents(col_ranges, self.nm, grid.pc, "col_ranges")
            if col_ranges is not None
            else grid.split_extent(self.nm, grid.pc)
        )

        # Per-rank devices on private clocks: each rank's compute time is
        # measured independently, and collectives take the max (ranks run
        # concurrently; the slowest gates the blocking collective).  A
        # heterogeneous spec gives ranks genuinely different throughput.
        self.rank_specs = _normalize_rank_specs(spec, grid.pr, grid.pc)
        self.devices: Dict[Tuple[int, int], Optional[SimulatedDevice]] = {}
        self.engines: Dict[Tuple[int, int], FFTMatvec] = {}
        if workspace is not None and not isinstance(workspace, bool):
            # A single Workspace instance cannot serve the grid: every
            # rank engine needs its own arena (checkout keys would
            # collide across ranks).  Refuse rather than silently
            # ignoring the caller's instance.
            raise ReproError(
                "ParallelFFTMatvec builds one arena per rank engine plus a "
                "grid arena; pass workspace=True, not a Workspace instance"
            )
        use_workspace = bool(workspace)
        for r in range(grid.pr):
            r0, r1 = self._row_ranges[r]
            for c in range(grid.pc):
                c0, c1 = self._col_ranges[c]
                local = self.matrix.blocks[:, r0:r1, c0:c1]
                rank_spec = self.rank_specs[(r, c)]
                dev = (
                    SimulatedDevice(rank_spec, clock=SimClock())
                    if rank_spec is not None
                    else None
                )
                self.devices[(r, c)] = dev
                engine = FFTMatvec(
                    BlockTriangularToeplitz(local),
                    device=dev,
                    use_optimized_sbgemv=use_optimized_sbgemv,
                    workspace=use_workspace,
                    backend=self.backend,
                    reduction=reduction,
                    validate=validate,
                )
                engine.rank_label = grid.rank_of(r, c)
                self.engines[(r, c)] = engine
        self.validate = validate
        if validate:
            # Any defense mode extends to the wire: verify collective
            # payload digests at every receive, grid-wide (the silent
            # clones are armed below, once constructed).
            grid.set_payload_verification(True)
        # Grid-level arena: broadcast payload staging, per-rank receive
        # buffers and float64 input staging shared by the chunk loop and
        # the vector path (per-rank pipeline buffers live in each
        # engine's own arena).
        self.workspace: Optional[Workspace] = (
            Workspace(name="grid", backend=self.backend) if use_workspace else None
        )
        self.device = self.devices[(0, 0)]
        if spec is not None:
            # One-time spectrum setup happens on every rank concurrently;
            # the grid clock pays the slowest rank's setup once.
            setup = max(
                d.clock.phase_total("setup") for d in self.devices.values()
            )
            with grid.clock.phase("setup"):
                grid.clock.advance(setup)

        # Timed collectives (row 0 / col 0) vs silent clones for the
        # other rows/columns, which run concurrently with the timed ones.
        self._silent_row = SimCommunicator(
            grid.pc, net=grid.net, clock=None, span=grid.pc, name="row_silent",
            backend=self.backend,
        )
        col_span = (grid.pr - 1) * grid.pc + 1
        self._silent_col = SimCommunicator(
            grid.pr, net=grid.net, clock=None, span=col_span, name="col_silent",
            backend=self.backend,
        )
        if validate:
            self._silent_row.verify_payloads = True
            self._silent_col.verify_payloads = True
        # All columns' (rows') collectives run concurrently; the one with
        # the widest payload gates the wall, so that index is the timed
        # one.  Balanced ceil-splits put the extra elements first, making
        # this index 0 — the historical choice — but caller-supplied
        # irregular partitions may put the big part anywhere.
        self._timed_row_idx = max(
            range(grid.pr), key=lambda r: self._row_ranges[r][1] - self._row_ranges[r][0]
        )
        self._timed_col_idx = max(
            range(grid.pc), key=lambda c: self._col_ranges[c][1] - self._col_ranges[c][0]
        )
        self.max_block_k = validate_max_block_k(max_block_k)
        self.overlap = bool(overlap)
        self.last_timing: Optional[TimingReport] = None
        self.matvec_count = 0  # logical operator actions (k per block)
        self.matmat_count = 0  # blocked pipeline passes (one per chunk)

    # -- fault injection ------------------------------------------------------
    def install_failure_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.comm.fault.FailureSchedule` to every
        communicator this engine drives: the grid's world/row/column
        comms *and* the silent clones the untimed rows/columns use, so
        the schedule's collective counter advances through the full
        deterministic SPMD sequence.  Pass ``None`` to disarm.
        """
        self.grid.install_failure_schedule(schedule)
        self._silent_row.install_failure_schedule(schedule)
        self._silent_col.install_failure_schedule(schedule)

    def install_corruption_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.comm.fault.CorruptionSchedule` to the
        whole engine: every grid communicator (and the silent clones)
        counts its collectives as corruption events, and every rank
        engine counts its FFT/SBGEMM/IFFT device stages — one shared
        deterministic event sequence, exactly like
        :meth:`install_failure_schedule`.  Installing also arms payload
        digests and the per-engine abft checks, so every scheduled flip
        has a detector downstream.  Pass ``None`` to disarm injection
        (checks stay as configured by ``validate=``).
        """
        self.grid.install_corruption_schedule(schedule)
        self._silent_row.install_corruption_schedule(schedule)
        self._silent_col.install_corruption_schedule(schedule)
        for (r, c), engine in self.engines.items():
            engine.install_corruption_schedule(
                schedule, rank=self.grid.rank_of(r, c)
            )

    # -- partition introspection ---------------------------------------------
    @property
    def row_ranges(self) -> List[Tuple[int, int]]:
        """The sensor-axis partition: one ``(start, stop)`` per grid row."""
        return list(self._row_ranges)

    @property
    def col_ranges(self) -> List[Tuple[int, int]]:
        """The parameter-axis partition: one ``(start, stop)`` per grid column."""
        return list(self._col_ranges)

    def geometry_key(
        self, config: Union[None, str, PrecisionConfig] = None
    ) -> Tuple:
        """Stable, hashable fingerprint of the distributed geometry.

        Extends :meth:`FFTMatvec.geometry_key` with the grid extents:
        process-grid shape and the exact row/column partitions (two
        engines with equal keys run identical per-rank shapes and
        collectives).  The reduction mode is part of the key — a
        fast-mode and a pairwise-mode grid must never be conflated (the
        serving cache keys engines and coalesced batches on this).
        ``config`` folds a precision configuration in, as on the
        single-device engine.
        """
        specs = tuple(
            (rc, s.name if s is not None else None)
            for rc, s in sorted(self.rank_specs.items())
        )
        return (
            "ParallelFFTMatvec",
            self.nt,
            self.nd,
            self.nm,
            self.backend.name,
            (self.grid.pr, self.grid.pc),
            tuple(self._row_ranges),
            tuple(self._col_ranges),
            specs,
            self.reduction,
            str(PrecisionConfig.parse(config)) if config is not None else None,
        )

    # -- measurement hooks ---------------------------------------------------
    def rank_compute_report(self) -> Dict[Tuple[int, int], float]:
        """Per-rank compute seconds harvested from the private clocks.

        Returns ``{(row, col): seconds}`` — the cumulative five-phase
        compute time each rank's own device has charged (setup excluded).
        On a balanced homogeneous grid all ranks tie; irregular
        partitions or heterogeneous specs show genuine spread, and the
        spread *is* the skew the wall pays at every collective.  This is
        the measured input of :func:`repro.comm.balance.rebalance_rows`
        / :func:`~repro.comm.balance.rebalance_cols`.
        """
        if any(d is None for d in self.devices.values()):
            raise ReproError(
                "rank_compute_report requires per-rank devices — construct "
                "ParallelFFTMatvec with spec=... to measure compute"
            )
        return {
            rc: sum(dev.clock.phase_total(p) for p in _PHASES)
            for rc, dev in self.devices.items()
        }

    def workspace_report(self) -> Dict[str, object]:
        """Arena footprint across the grid (requires ``workspace=True``).

        Returns the grid-level arena's size plus, per rank, the engine
        arena's bytes/buffers and the rank DeviceAllocator's peak — the
        modeled persistent device footprint of the allocation-free hot
        path, a first-class capacity-planning field.
        """
        if self.workspace is None:
            raise ReproError(
                "workspace_report requires the engine to be constructed "
                "with workspace=True"
            )
        ranks: Dict[str, Dict[str, Optional[int]]] = {}
        for rc, engine in self.engines.items():
            ws = engine.workspace
            dev = self.devices[rc]
            assert ws is not None
            ranks[f"{rc[0]},{rc[1]}"] = {
                "arena_bytes": ws.nbytes,
                "arena_buffers": ws.buffer_count,
                "registered_bytes": ws.registered_bytes,
                "allocator_peak_bytes": (
                    dev.allocator.peak if dev is not None else None
                ),
            }
        rank_total = sum(
            e.workspace.nbytes for e in self.engines.values()  # type: ignore[union-attr]
        )
        return {
            "grid_arena_bytes": self.workspace.nbytes,
            "grid_arena_buffers": self.workspace.buffer_count,
            "rank_arenas": ranks,
            "total_arena_bytes": self.workspace.nbytes + rank_total,
        }

    # -- helpers ------------------------------------------------------------
    def _stage_payload(self, block: np.ndarray, prec, tag: str) -> np.ndarray:
        """Contiguous Phase-1 payload at the broadcast precision.

        The reference path re-``ascontiguousarray``s (and casts) per
        call; with the arena the strided block is copied-with-cast into
        a persistent buffer — same bytes, no allocation.
        """
        be = self.backend
        if self.workspace is None:
            return be.cast(be.ascontiguous(be.asarray(block)), prec)
        buf = self.workspace.buffer(tag, tuple(block.shape), real_dtype(prec))
        buf[...] = be.asarray(block)
        return buf

    def _as_input64(self, arr, tag: str):
        """Present a broadcast copy to the rank engines as float64."""
        be = self.backend
        if be.dtype_of(arr) == np.float64:
            return arr
        if self.workspace is None:
            return be.astype(be.asarray(arr), np.float64, copy=False)
        buf = self.workspace.buffer(tag, tuple(arr.shape), np.float64)
        buf[...] = arr
        return buf

    def _timed_col(self, c: int) -> SimCommunicator:
        return self.grid.col_comm(0) if c == self._timed_col_idx else self._silent_col

    def _timed_row(self, r: int) -> SimCommunicator:
        return self.grid.row_comm(0) if r == self._timed_row_idx else self._silent_row

    def _snapshot(self) -> Dict[str, float]:
        return {p: self.grid.clock.phase_total(p) for p in _REPORT_PHASES}

    def _record(
        self, before: Dict[str, float], label: str, wall: Optional[float] = None
    ) -> None:
        clock = self.grid.clock
        self.last_timing = TimingReport(
            phases={
                p: clock.phase_total(p) - before[p]
                for p in _REPORT_PHASES
                if clock.phase_total(p) - before[p] > 0
            },
            label=label,
            wall=wall,
        )

    def _rank_compute(
        self, run_rank: Callable[[int, int, FFTMatvec], np.ndarray]
    ) -> Tuple[Dict[Tuple[int, int], np.ndarray], Dict[str, float]]:
        """Run every rank's local pipeline; return partials + max-rank time.

        Each rank charges its private clock; the returned phase breakdown
        is the *slowest* rank's (per-rank skew — on a balanced partition
        every rank ties and this is exactly one rank's time, matching the
        old single-charge model bitwise).
        """
        partials: Dict[Tuple[int, int], np.ndarray] = {}
        slowest: Optional[Tuple[float, Dict[str, float]]] = None
        for (r, c), engine in self.engines.items():
            dev = self.devices[(r, c)]
            if dev is not None:
                before = {p: dev.clock.phase_total(p) for p in _PHASES}
            partials[(r, c)] = run_rank(r, c, engine)
            if dev is not None:
                deltas = {
                    p: dev.clock.phase_total(p) - before[p] for p in _PHASES
                }
                total = sum(deltas.values())
                if slowest is None or total > slowest[0]:
                    slowest = (total, deltas)
        return partials, (slowest[1] if slowest is not None else {})

    def _charge_compute(
        self, phases: Dict[str, float], stream: Optional[Stream] = None
    ) -> None:
        """Charge a per-phase compute breakdown onto a stream or the clock."""
        clock = self.grid.clock
        for p in _PHASES:
            t = phases.get(p, 0.0)
            if t <= 0:
                continue
            if stream is not None:
                stream.charge(t, phase=p)
            else:
                with clock.phase(p):
                    clock.advance(t)

    # -- vector API: the width-1 block -----------------------------------------
    def matvec(
        self, m: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """Compute ``d = F m`` across the grid; returns the global (Nt, Nd).

        The vector apply is the width-1 block
        ``matmat(m[:, :, None], deterministic=True, overlap=False)``: a
        single vector cannot overlap (phases 2–4 depend on the Phase-1
        broadcast), so the serial schedule applies, and its bits are
        column ``j`` of any deterministic block — of any block in
        pairwise mode, which ignores ``deterministic``.
        """
        mm = self.matrix.check_input(m).astype(np.float64, copy=False)
        return self._apply_vector(mm, config, adjoint=False)

    def rmatvec(
        self, d: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """Compute ``m = F* d`` across the grid; returns the global (Nt, Nm).
        The width-1 block of :meth:`rmatmat`, as in :meth:`matvec`."""
        dd = self.matrix.check_output(d).astype(np.float64, copy=False)
        return self._apply_vector(dd, config, adjoint=True)

    def _apply_vector(
        self, v: np.ndarray, config: Union[str, PrecisionConfig], adjoint: bool
    ) -> np.ndarray:
        """The width-1 deterministic block on the serial schedule.  One
        logical action, not a blocked pass: ``matmat_count`` stays put,
        as on the single-device engine."""
        passes = self.matmat_count
        out = self._matmat_impl(
            v[:, :, None], config, None, adjoint=adjoint, overlap=False,
            deterministic=True,
        )
        self.matmat_count = passes
        return out[:, :, 0]

    # -- blocked multi-RHS path across the grid ------------------------------
    def _check_block(self, V: np.ndarray, nx: int, what: str) -> np.ndarray:
        """Validate/reshape a multi-RHS block to (Nt, nx, k)."""
        return check_block(V, self.nt, nx, what)

    def _chunk_bcast(
        self,
        chunk: np.ndarray,
        cfg: PrecisionConfig,
        adjoint: bool,
        stream: Optional[Stream],
        slot: int = 0,
    ) -> Tuple[Dict[int, np.ndarray], float]:
        """Phase 1 communication for one chunk: ONE batched broadcast per
        grid column (row for the adjoint) carries the whole
        ``(Nt, n_local, kc)`` block in Phase 1's precision — volume scales
        by kc, the log2 latency tree is paid once for the chunk.

        With the arena, payload and receive buffers are persistent and
        keyed by ``slot`` — the overlapped schedule ping-pongs between
        two slots (``i % 2``) so the prefetched chunk ``i + 1`` never
        shares buffers with the chunk ``i`` payload still in flight,
        while chunk ``i + 2`` reuses chunk ``i``'s.  Returns the
        per-column (per-row) broadcast copies and the modeled time
        charged (onto ``stream`` when given, else the grid clock).
        """
        in_ranges = self._row_ranges if adjoint else self._col_ranges
        in_comm = self._timed_row if adjoint else self._timed_col
        n_in = self.grid.pr if adjoint else self.grid.pc
        axis = "r" if adjoint else "c"
        t0 = stream.cursor if stream is not None else self.grid.clock.now
        in_blocks: Dict[int, np.ndarray] = {}
        for i in range(n_in):
            i0, i1 = in_ranges[i]
            payload = self._stage_payload(
                chunk[:, i0:i1, :], cfg.pad, f"pay[{slot}]/{axis}{i}"
            )
            cobj = in_comm(i)
            with cobj.on_stream(stream if cobj.clock is not None else None):
                copies = cobj.bcast(
                    payload,
                    root=0,
                    phase="pad",
                    workspace=self.workspace,
                    tag=f"recv[{slot}]/{axis}{i}",
                    backend=self.backend,
                )
            in_blocks[i] = self._as_input64(copies[0], f"in64[{slot}]/{axis}{i}")
        t1 = stream.cursor if stream is not None else self.grid.clock.now
        return in_blocks, t1 - t0

    def _chunk_compute(
        self,
        in_blocks: Dict[int, np.ndarray],
        cfg: PrecisionConfig,
        adjoint: bool,
        stream: Optional[Stream],
        deterministic: bool = False,
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Per-rank blocked pipelines for one chunk: one pad / batched FFT
        / SBGEMM / IFFT / unpad pass on every rank; the max-rank time is
        charged onto ``stream`` (or the grid clock).  ``deterministic``
        selects each rank's per-column-GEMV Phase 3."""
        partials, compute = self._rank_compute(
            lambda r, c, engine: engine._pipeline_block(
                in_blocks[r if adjoint else c],
                cfg,
                adjoint=adjoint,
                detach=False,
                deterministic=deterministic,
            )
        )
        self._charge_compute(compute, stream=stream)
        return partials

    def _chunk_reduce(
        self,
        partials: Dict[Tuple[int, int], np.ndarray],
        out: np.ndarray,
        cfg: PrecisionConfig,
        adjoint: bool,
        stream: Optional[Stream],
    ) -> None:
        """Phase 5 communication for one chunk: ONE batched tree-reduce
        per grid row (column for the adjoint); the eps5 * log2
        accumulation applies elementwise to every column of the block.
        The reduced rows land directly in ``out`` — the caller's
        ``(Nt, ny, kc)`` output view — with no intermediate gather
        buffer."""
        out_ranges = self._col_ranges if adjoint else self._row_ranges
        out_comm = self._timed_col if adjoint else self._timed_row
        n_out = self.grid.pc if adjoint else self.grid.pr
        for o in range(n_out):
            o0, o1 = out_ranges[o]
            if adjoint:
                contribs = [
                    self.backend.cast(partials[(r, o)], cfg.unpad)
                    for r in range(self.grid.pr)
                ]
            else:
                contribs = [
                    self.backend.cast(partials[(o, c)], cfg.unpad)
                    for c in range(self.grid.pc)
                ]
            cobj = out_comm(o)
            with cobj.on_stream(stream if cobj.clock is not None else None):
                reduced = cobj.reduce(
                    contribs, root=0, precision=cfg.unpad, phase="unpad",
                    backend=self.backend,
                )
            out[:, o0:o1, :] = self.backend.from_device(reduced)

    def _chunk_compute_pairwise(
        self,
        in_blocks: Dict[int, np.ndarray],
        cfg: PrecisionConfig,
        adjoint: bool,
        stream: Optional[Stream],
    ) -> Dict[Tuple[int, int], Dict[Tuple[int, int], np.ndarray]]:
        """Pairwise front half for one chunk: every rank runs pad / FFT /
        reorder and computes Phase-3 partial panels for the canonical
        tree segments of its *global* contraction range.  No IFFT/unpad
        here — the epilogue runs once per output part after the
        frequency-domain segment reduce.  Max-rank time is charged onto
        ``stream`` (or the grid clock)."""
        in_ranges = self._row_ranges if adjoint else self._col_ranges
        n_global = self.nd if adjoint else self.nm
        tables, compute = self._rank_compute(
            lambda r, c, engine: engine._pipeline_block_pairwise_segments(
                in_blocks[r if adjoint else c],
                cfg,
                adjoint=adjoint,
                start=in_ranges[r if adjoint else c][0],
                n_global=n_global,
            )
        )
        self._charge_compute(compute, stream=stream)
        return tables

    def _chunk_reduce_pairwise(
        self,
        tables: Dict[Tuple[int, int], Dict[Tuple[int, int], np.ndarray]],
        out: np.ndarray,
        cfg: PrecisionConfig,
        adjoint: bool,
        stream: Optional[Stream],
    ) -> None:
        """Pairwise Phase 5 for one chunk: ONE frequency-domain segment
        reduce per grid row (column for the adjoint) merges every rank's
        canonical-segment panels through the fixed tree, then the output
        part's root rank runs the IFFT/unpad epilogue once on the merged
        panel.  All root epilogues run concurrently on distinct devices,
        so the max is charged (onto ``stream``, where it overlaps the
        next chunk's front compute like a second device queue)."""
        out_ranges = self._col_ranges if adjoint else self._row_ranges
        out_comm = self._timed_col if adjoint else self._timed_row
        n_out = self.grid.pc if adjoint else self.grid.pr
        n_global = self.nd if adjoint else self.nm
        slowest: Optional[Tuple[float, Dict[str, float]]] = None
        for o in range(n_out):
            o0, o1 = out_ranges[o]
            if adjoint:
                contribs = [tables[(r, o)] for r in range(self.grid.pr)]
                root_rc = (0, o)
            else:
                contribs = [tables[(o, c)] for c in range(self.grid.pc)]
                root_rc = (o, 0)
            cobj = out_comm(o)
            with cobj.on_stream(stream if cobj.clock is not None else None):
                merged = cobj.reduce_segments(
                    contribs, n_global, root=0, phase="unpad",
                    backend=self.backend,
                )
            engine = self.engines[root_rc]
            dev = self.devices[root_rc]
            if dev is not None:
                before = {p: dev.clock.phase_total(p) for p in _PHASES}
            res = engine._pipeline_block_finish(merged, cfg, adjoint=adjoint)
            if dev is not None:
                deltas = {
                    p: dev.clock.phase_total(p) - before[p] for p in _PHASES
                }
                total = sum(deltas.values())
                if slowest is None or total > slowest[0]:
                    slowest = (total, deltas)
            out[:, o0:o1, :] = res
        if slowest is not None:
            self._charge_compute(slowest[1], stream=stream)

    def _matmat_serial(
        self,
        VV: np.ndarray,
        out: np.ndarray,
        ranges: List[Tuple[int, int]],
        cfg: PrecisionConfig,
        adjoint: bool,
        deterministic: bool = False,
    ) -> None:
        """Serial charge: broadcast → compute → reduce per chunk, in
        program order on the grid clock (the pre-timeline model)."""
        pairwise = self.reduction == "pairwise"
        for i, (j0, j1) in enumerate(ranges):
            chunk = VV[:, :, j0:j1]
            in_blocks, _ = self._chunk_bcast(
                chunk, cfg, adjoint, stream=None, slot=i % 2
            )
            if pairwise:
                tables = self._chunk_compute_pairwise(
                    in_blocks, cfg, adjoint, stream=None
                )
                self._chunk_reduce_pairwise(
                    tables, out[:, :, j0:j1], cfg, adjoint, stream=None
                )
                continue
            partials = self._chunk_compute(
                in_blocks, cfg, adjoint, stream=None, deterministic=deterministic
            )
            self._chunk_reduce(
                partials, out[:, :, j0:j1], cfg, adjoint, stream=None
            )

    def _matmat_overlapped(
        self,
        VV: np.ndarray,
        out: np.ndarray,
        ranges: List[Tuple[int, int]],
        cfg: PrecisionConfig,
        adjoint: bool,
        deterministic: bool = False,
        host: Optional[HostModel] = None,
        overlap_host: bool = True,
    ) -> None:
        """Double-buffered chunk schedule on the event timeline.

        Comm stream: bcast(0), bcast(1), reduce(0), bcast(2), reduce(1),
        …, reduce(n-1) — each chunk's broadcast is *prefetched* while the
        previous chunk computes, and each reduce waits on its chunk's
        compute event.  Compute stream: chunk i waits on bcast(i)'s
        event.  Wall time (realized at the final sync) is the critical
        path; the numerics are identical to the serial schedule.

        With a fused ``host`` model a third stream carries the
        dense-assembly host routines: chunk i's generate
        (``k_i * gen_time``) is charged before — and its event gates —
        chunk i's broadcast, and chunk i's save (``k_i * save_time``)
        waits on chunk i's reduce event.  The host stream is in order,
        so generate(i+1) precedes save(i) (the classic double-buffer
        slot) and save(i) precedes generate(i+2) — two buffers, neither
        side runs further ahead.  Host, device and network are then
        fully concurrent; the wall is the max of the three streams'
        critical paths.  ``overlap_host=False`` callers run this
        two-stream schedule unchanged and charge the host total
        serially afterwards (see :meth:`_matmat_impl`).
        """
        pairwise = self.reduction == "pairwise"
        tl = Timeline(self.grid.clock)
        comm_s = tl.stream("comm")
        comp_s = tl.stream("compute")
        host_s = (
            tl.stream("host") if host is not None and overlap_host else None
        )
        widths = [j1 - j0 for j0, j1 in ranges]
        exposed = self.grid.net.exposed_fraction()

        if host_s is not None:
            # Prologue: generate chunk 0's inputs; the broadcast cannot
            # leave before the host has produced them.
            host_s.charge(widths[0] * host.gen_time, phase="host")
            comm_s.wait(host_s.record("gen[0]"))
        in_blocks, _ = self._chunk_bcast(
            VV[:, :, ranges[0][0] : ranges[0][1]], cfg, adjoint, stream=comm_s, slot=0
        )
        ev_bcast = comm_s.record("bcast[0]")
        reduce_tax = 0.0  # exposed share of the previous chunk's reduce
        for i, (j0, j1) in enumerate(ranges):
            comp_s.wait(ev_bcast)
            if reduce_tax > 0.0:
                # Imperfect overlap: the previous chunk's reduce steals
                # link/engine bandwidth from this chunk's compute.
                comp_s.charge(reduce_tax, phase="unpad")
            if pairwise:
                partials = self._chunk_compute_pairwise(
                    in_blocks, cfg, adjoint, stream=comp_s
                )
            else:
                partials = self._chunk_compute(
                    in_blocks, cfg, adjoint, stream=comp_s,
                    deterministic=deterministic,
                )
            if i + 1 < len(ranges):
                n0, n1 = ranges[i + 1]
                if host_s is not None:
                    # Generate chunk i+1 while chunk i computes; the
                    # prefetched broadcast waits on it.
                    host_s.charge(widths[i + 1] * host.gen_time, phase="host")
                    comm_s.wait(host_s.record(f"gen[{i + 1}]"))
                # Prefetch into the other ping-pong slot: chunk i's
                # payload buffers stay live while chunk i+1's broadcast
                # is in flight, exactly as on the real machine.
                in_blocks, t_next = self._chunk_bcast(
                    VV[:, :, n0:n1], cfg, adjoint, stream=comm_s, slot=(i + 1) % 2
                )
                ev_bcast = comm_s.record(f"bcast[{i + 1}]")
                if exposed > 0.0:
                    # ... as does the prefetched broadcast.
                    comp_s.charge(exposed * t_next, phase="pad")
            ev_compute = comp_s.record(f"compute[{i}]")
            comm_s.wait(ev_compute)
            c0 = comm_s.cursor
            if pairwise:
                self._chunk_reduce_pairwise(
                    partials, out[:, :, j0:j1], cfg, adjoint, stream=comm_s
                )
            else:
                self._chunk_reduce(
                    partials, out[:, :, j0:j1], cfg, adjoint, stream=comm_s
                )
            # This reduce overlaps the *next* chunk's compute (if any).
            reduce_tax = (
                exposed * (comm_s.cursor - c0) if i + 1 < len(ranges) else 0.0
            )
            if host_s is not None:
                # Save chunk i's results once its reduce has delivered
                # them; overlaps chunk i+1's compute and collectives.
                host_s.wait(comm_s.record(f"reduce[{i}]"))
                host_s.charge(widths[i] * host.save_time, phase="host")
        tl.sync()

    def _matmat_impl(
        self,
        V: np.ndarray,
        config: Union[str, PrecisionConfig],
        max_block_k: Optional[int],
        adjoint: bool,
        overlap: Optional[bool],
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
        overlap_host: Optional[bool] = None,
    ) -> np.ndarray:
        cfg = PrecisionConfig.parse(config)
        nx = self.nd if adjoint else self.nm
        VV = self._check_block(V, nx, "data" if adjoint else "parameter")
        k = VV.shape[2]
        if max_block_k is None:
            max_block_k = self.max_block_k
        else:
            max_block_k = validate_max_block_k(max_block_k)
        ranges = chunk_ranges(k, max_block_k)
        use_overlap = self.overlap if overlap is None else bool(overlap)
        host = self.host
        fuse_host = (
            self.overlap_host if overlap_host is None else bool(overlap_host)
        )

        before = self._snapshot()
        t_start = self.grid.clock.now
        ny = self.nm if adjoint else self.nd
        out = check_out_buffer(out, (self.nt, ny, k))
        if out is None:
            out = np.empty((self.nt, ny, k))
        with _apply_scope(self.workspace):
            if use_overlap:
                self._matmat_overlapped(
                    VV, out, ranges, cfg, adjoint, deterministic=deterministic,
                    host=host, overlap_host=fuse_host,
                )
            else:
                self._matmat_serial(
                    VV, out, ranges, cfg, adjoint, deterministic=deterministic
                )
            if host is not None and not (use_overlap and fuse_host):
                # Unfused host charge: the generate/save total rides
                # serially on top of the device/network schedule — the
                # two-stream baseline the three-stream fusion beats.
                with self.grid.clock.phase("host"):
                    self.grid.clock.advance(k * host.per_vector)
        name = "F*" if adjoint else "F"
        sched = "overlap" if use_overlap else "serial"
        if host is not None:
            sched += "+host3" if use_overlap and fuse_host else "+host"
        self._record(
            before,
            f"{cfg} {name}[k={k}/{len(ranges)} chunk(s), {sched}"
            f"{', det' if deterministic else ''}"
            f"{', pairwise' if self.reduction == 'pairwise' else ''}] "
            f"({self.grid.pr}x{self.grid.pc})",
            wall=self.grid.clock.now - t_start,
        )
        self.matvec_count += k
        self.matmat_count += len(ranges)
        return out

    def matmat(
        self,
        M: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        max_block_k: Optional[int] = None,
        overlap: Optional[bool] = None,
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
        overlap_host: Optional[bool] = None,
    ) -> np.ndarray:
        """Compute ``D = F M`` for k parameter vectors across the grid.

        ``M`` is ``(Nt, Nm, k)`` (or scipy-style ``(Nt*Nm, k)``); the
        result is ``(Nt, Nd, k)``.  Each chunk of at most ``max_block_k``
        columns (default: the constructor's knob; None = one chunk) pays
        one column-broadcast and one row-reduce — ``ceil(k/max_block_k)``
        collectives total instead of ``k``.  ``overlap`` selects the
        charged schedule (None = constructor default): the overlapped
        schedule prefetches each chunk's broadcast behind the previous
        chunk's compute, the serial one charges them back to back;
        results are bitwise identical either way.  ``matvec_count``
        advances by ``k`` (logical actions), ``matmat_count`` by the
        chunk count; ``last_timing.wall`` holds the schedule's critical
        path, ``last_timing.phases`` the work charged per phase.
        ``out`` (``(Nt, Nd, k)`` float64, C-contiguous) receives the
        result in place — with ``workspace=True`` repeated applies are
        allocation-free at steady state.  ``deterministic=True`` runs
        every rank's Phase 3 as per-column GEMVs so column ``j`` is
        **bitwise** ``matvec(M[:, :, j])`` (see
        :meth:`FFTMatvec.matmat`); the elementwise tree-reduce already
        preserves per-column bits, so the guarantee survives the grid,
        and :meth:`matvec` is this path at ``k = 1``.  With ``reduction="pairwise"`` that per-column guarantee holds
        unconditionally *and* the result is bitwise-invariant to the
        grid partition and chunking (``deterministic`` is then
        redundant and ignored).  A constructor-fused ``host`` model
        charges each chunk's generate/save on the third stream;
        ``overlap_host`` (None = constructor default) selects fused vs
        serial host charging per call.
        """
        return self._matmat_impl(
            M, config, max_block_k, adjoint=False, overlap=overlap, out=out,
            deterministic=deterministic, overlap_host=overlap_host,
        )

    def rmatmat(
        self,
        D: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        max_block_k: Optional[int] = None,
        overlap: Optional[bool] = None,
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
        overlap_host: Optional[bool] = None,
    ) -> np.ndarray:
        """Compute ``M = F* D`` for k data vectors across the grid.

        The blocked adjoint: one row-broadcast and one column-reduce per
        chunk (the column reduce crosses machine groups, so hiding its
        latency behind compute matters most).  See :meth:`matmat`,
        including the ``deterministic`` / ``reduction="pairwise"``
        bitwise guarantees and the fused ``host`` stream.
        """
        return self._matmat_impl(
            D, config, max_block_k, adjoint=True, overlap=overlap, out=out,
            deterministic=deterministic, overlap_host=overlap_host,
        )
