"""Multi-core sharded execution of tiled crossbar GEMMs, one fused pass per k-block.

The paper's headline architectural feature (Section IV) is the multi-core
crossbar chip: a dual-core design keeps two copies of the photonic datapath so
one core computes while the other is reprogrammed.
:class:`~repro.crossbar.dual_core.DualCoreCrossbar` models that schedule
analytically; this module makes the *functional* datapath account for the
same schedule.  :class:`ShardedExecutionEngine` assigns the tiles of a
programmed tile plan (see :mod:`repro.core.accelerator`) to the chip's
``num_cores`` crossbar cores with the same static round-robin the analytical
scheduler uses — tile ``i`` computes on core ``i % num_cores`` — and reports
per-core tile counts and busy times for every dispatch.

Fused k-block datapath
----------------------
Eq. (1) computes every column of a crossbar in one optical pass, and every
tile of one k-block (the tiles sharing ``k_start``) sees the same input
slice.  :meth:`ShardedExecutionEngine.execute` therefore runs each k-block
as one pass over a :class:`FusedKBlock`, whose ``[W+ | W-]`` buffer holds
the live columns of every tile in the block:

1. slice and pad the inputs once and compute per-vector input scales;
2. split into positive and negative parts and ODAC-modulate each part once;
3. one 2-D GEMM against ``[W+ | W-]``;
4. one ADC detection with a per-column full-scale vector, plus boundary
   repair;
5. combine the differential pair, scaled per tile and per vector;
6. accumulate the k-blocks in plan order into a ``+0.0`` zero matrix.

Each step performs the operations of
:meth:`SignedCrossbarEngine.matmul <repro.crossbar.signed.SignedCrossbarEngine.matmul>`
and :meth:`CrossbarArray.matmul <repro.crossbar.array.CrossbarArray.matmul>`
in the same order, on the same values, so the result is the per-tile loop's.

Repair contract
---------------
The wide GEMM may differ from a per-tile kernel in the last ulp, and exact
half-LSB ties are common on the quantised lattice.  In noiseless operation
(no noise model, or one whose field impairments are zero), every output
whose quantiser argument lies within
:data:`~repro.crossbar.array.ADC_BOUNDARY_WINDOW` of a rounding boundary is
recomputed, at every batch size, with the per-vector GEMV kernel on the
tile's padded (rows, columns) matrix.  Repairs are grouped per tile segment
and row: one GEMV per pair, and no matrix copies.  The emitted ADC codes are
therefore those of streaming each vector through each tile alone.

Noise
-----
With a field noise model, the noise is applied per tile and per polarity, in
the per-tile loop's draw order, on a zero-padded (num_vectors, columns) tile
block, using the tile's own generator.  The random draws are therefore the
same as the per-tile loop's; the field values they perturb match it bitwise
wherever the wide GEMM does (every batch of two or more vectors on BLAS
builds whose GEMM results do not depend on the output width; a single vector
runs a GEMV whose last ulp may differ).

Cross-checking against the analytical schedule
----------------------------------------------
:meth:`ShardedExecutionEngine.programming_jobs` converts a tile plan into the
:class:`~repro.crossbar.dual_core.ProgrammingJob` sequence the analytical
scheduler consumes, and :meth:`ShardedExecutionEngine.schedule_summary` runs
:meth:`DualCoreCrossbar.summarize` over it, so tests (and
``functional_statistics()`` consumers) can verify that the functional per-core
tile assignment and busy times agree with the event-driven schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.crossbar.array import ADC_BOUNDARY_WINDOW, CrossbarArray
from repro.crossbar.dual_core import DualCoreCrossbar, ProgrammingJob
from repro.errors import SimulationError


@dataclass(frozen=True)
class ShardReport:
    """Per-core accounting of one sharded GEMM dispatch.

    ``core_tile_counts[c]`` is the number of tiles executed on core ``c`` and
    ``core_busy_time_s[c]`` the modelled busy time of that core (per-tile PCM
    programming time plus ``num_vectors`` MAC cycles of compute per tile),
    matching the per-core program+compute totals of the analytical
    :class:`~repro.crossbar.dual_core.DualCoreCrossbar` schedule.
    """

    core_tile_counts: Tuple[int, ...]
    core_busy_time_s: Tuple[float, ...]


@dataclass(frozen=True)
class TileSegment:
    """One tile's columns of one polarity inside a :class:`FusedKBlock`.

    ``array`` is the tile's positive or negative
    :class:`~repro.crossbar.array.CrossbarArray` (ADC full scale, noise
    generator) and ``matrix`` its padded (rows, columns) programmed matrix,
    the repair reference.  The segment occupies fused columns
    ``[start, start + width)``.
    """

    array: CrossbarArray
    matrix: np.ndarray
    start: int
    width: int


@dataclass(frozen=True)
class FusedKBlock:
    """Every tile of one k-block, laid out for a single fused pass.

    ``weights`` is the (rows, 2 * n) buffer ``[W+ | W-]``: column ``j < n``
    holds output ``j``'s positive weights, column ``n + j`` its negative
    weights.  A full-width tile's arrays keep their matrices as views into
    it; a partial tile's live columns are copied in.  ``full_scale`` is the
    per-column ADC full scale, ``weight_scale`` the per-output tile weight
    scale, ``segments`` the :class:`TileSegment` list in the per-tile loop's
    noise draw order (tile by tile, positive before negative), and
    ``segment_of_column`` / ``column_offset`` map each fused column to its
    segment and to its column within that segment's tile.
    """

    k_start: int
    k_end: int
    weights: np.ndarray
    full_scale: np.ndarray
    weight_scale: np.ndarray
    segments: Tuple[TileSegment, ...]
    segment_of_column: np.ndarray
    column_offset: np.ndarray

    @classmethod
    def build(
        cls, k_start: int, k_end: int, weights: np.ndarray, tiles, matrices
    ) -> "FusedKBlock":
        """Describe programmed ``tiles`` whose live columns fill ``weights``.

        ``tiles`` are the block's programmed tiles in plan order (ascending
        ``n_start``), each with an ``engine`` and ``n_start``/``n_end``;
        ``matrices[i]`` is the (positive, negative) storage tile ``i``'s
        arrays were programmed into.
        """
        n = weights.shape[1] // 2
        segments: List[TileSegment] = []
        for tile, (positive, negative) in zip(tiles, matrices):
            width = tile.n_end - tile.n_start
            engine = tile.engine
            segments.append(TileSegment(engine.positive_array, positive, tile.n_start, width))
            segments.append(TileSegment(engine.negative_array, negative, n + tile.n_start, width))
        order = sorted(range(len(segments)), key=lambda index: segments[index].start)
        widths = [segments[index].width for index in order]
        return cls(
            k_start=k_start,
            k_end=k_end,
            weights=weights,
            full_scale=np.repeat(
                [segments[index].array.adc_full_scale for index in order], widths
            ),
            weight_scale=np.repeat(
                [tile.engine.weight_scale for tile in tiles],
                [tile.n_end - tile.n_start for tile in tiles],
            ),
            segments=tuple(segments),
            segment_of_column=np.repeat(order, widths),
            column_offset=np.concatenate([np.arange(width) for width in widths]),
        )

    @property
    def n(self) -> int:
        """Output width of the block (every k-block spans all n outputs)."""
        return self.weights.shape[1] // 2


class ShardedExecutionEngine:
    """Executes a tile plan's GEMMs, accounted across ``num_cores`` crossbar cores.

    Parameters
    ----------
    num_cores:
        Number of physical crossbar cores on the chip.  Tiles are assigned
        round-robin (tile ``i`` → core ``i % num_cores``), matching the
        core-alternation semantics of
        :class:`~repro.crossbar.dual_core.DualCoreCrossbar`.
    mac_clock_hz:
        Optical MAC rate, used for the per-tile compute-time estimate
        (one streamed vector per MAC cycle).
    """

    def __init__(self, num_cores: int, mac_clock_hz: float) -> None:
        if num_cores < 1:
            raise SimulationError(f"num_cores must be >= 1, got {num_cores}")
        if mac_clock_hz <= 0:
            raise SimulationError(f"mac_clock_hz must be > 0, got {mac_clock_hz}")
        self.num_cores = int(num_cores)
        self.mac_clock_hz = float(mac_clock_hz)

    # ------------------------------------------------------------------ schedule
    def core_assignment(self, num_tiles: int) -> List[int]:
        """Static round-robin core of each tile: tile ``i`` → ``i % num_cores``."""
        if num_tiles < 0:
            raise SimulationError(f"num_tiles must be >= 0, got {num_tiles}")
        return [index % self.num_cores for index in range(num_tiles)]

    def core_totals(self, tiles) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Per-core tile counts and summed PCM programming time of ``tiles``.

        Computed once when a plan is built; :meth:`execute` adds the
        per-dispatch compute time to form each core's busy time.
        """
        counts = [0] * self.num_cores
        programming = [0.0] * self.num_cores
        for index, tile in enumerate(tiles):
            core = index % self.num_cores
            counts[core] += 1
            programming[core] += float(tile.engine.statistics()["programming_time_s"])
        return tuple(counts), tuple(programming)

    def programming_jobs(self, plan, num_vectors: int) -> List[ProgrammingJob]:
        """Analytical :class:`ProgrammingJob` sequence for ``plan``.

        Each tile contributes one job: its accumulated PCM programming time
        and ``num_vectors`` MAC cycles of compute.  Feeding the result to
        :class:`~repro.crossbar.dual_core.DualCoreCrossbar` reproduces the
        core assignment used by :meth:`execute` (job ``i`` computes on core
        ``i % 2`` in the dual-core schedule).
        """
        if num_vectors < 1:
            raise SimulationError(f"num_vectors must be >= 1, got {num_vectors}")
        compute_time_s = num_vectors / self.mac_clock_hz
        jobs: List[ProgrammingJob] = []
        for index, tile in enumerate(plan.tiles):
            stats = tile.engine.statistics()
            jobs.append(
                ProgrammingJob(
                    name=f"tile{index}",
                    programming_time_s=float(stats["programming_time_s"]),
                    compute_time_s=compute_time_s,
                )
            )
        return jobs

    def schedule_summary(self, plan, num_vectors: int) -> Dict[str, float]:
        """:meth:`DualCoreCrossbar.summarize` over the plan's tile jobs."""
        return DualCoreCrossbar.summarize(self.programming_jobs(plan, num_vectors))

    def _report(self, plan, num_vectors: int) -> ShardReport:
        """Per-core tile counts and busy-time estimates for one dispatch."""
        compute_time_s = num_vectors / self.mac_clock_hz
        busy = tuple(
            programming + count * compute_time_s
            for count, programming in zip(
                plan.core_tile_counts, plan.core_programming_time_s
            )
        )
        return ShardReport(plan.core_tile_counts, busy)

    # ------------------------------------------------------------------ execute
    def execute(self, plan, inputs: np.ndarray):
        """Run ``inputs`` through every k-block of ``plan`` and assemble the result.

        Parameters
        ----------
        plan:
            A programmed tile plan (``repro.core.accelerator._TilePlan``): an
            object with ``n`` (output width), ``blocks`` (one
            :class:`FusedKBlock` per k-block, in plan order) and the per-core
            ``core_tile_counts`` / ``core_programming_time_s`` totals.
        inputs:
            Input matrix of shape (num_vectors, k).

        Returns
        -------
        (numpy.ndarray, ShardReport)
            The (num_vectors, plan.n) result and the per-core accounting of
            this dispatch.
        """
        num_vectors = inputs.shape[0]
        result = np.zeros((num_vectors, plan.n))
        for block in plan.blocks:
            padded = np.zeros((num_vectors, block.weights.shape[0]))
            padded[:, : block.k_end - block.k_start] = inputs[:, block.k_start : block.k_end]
            result += _signed_block_pass(block, padded)
        return result, self._report(plan, num_vectors)


def _signed_block_pass(block: FusedKBlock, inputs: np.ndarray) -> np.ndarray:
    """Signed GEMM of padded ``inputs`` against every tile of ``block``.

    Mirrors :meth:`SignedCrossbarEngine.matmul`: per-vector input scales, the
    positive pass, the negative pass only when some input is negative, and
    the per-tile weight scale applied before the per-vector input scale.
    """
    num_vectors, n = inputs.shape[0], block.n
    input_scales = np.max(np.abs(inputs), axis=1)
    if not np.any(input_scales > 0.0):
        return np.zeros((num_vectors, n))
    safe_scales = np.where(input_scales > 0.0, input_scales, 1.0)
    normalised = inputs / safe_scales[:, None]
    positive_in = np.clip(normalised, 0.0, None)
    negative_in = np.clip(-normalised, 0.0, None)

    detected = _detect_block(block, positive_in)
    result = np.subtract(detected[:, :n], detected[:, n:])
    if np.any(negative_in > 0):
        detected = _detect_block(block, negative_in)
        result -= np.subtract(detected[:, :n], detected[:, n:], out=detected[:, :n])
    result *= block.weight_scale
    result *= input_scales[:, None]
    return result


def _detect_block(block: FusedKBlock, values: np.ndarray) -> np.ndarray:
    """Modulate, GEMM, (noise,) and ADC-detect one non-negative input pass.

    Returns the detected dot products for every fused column, shape
    (num_vectors, 2 * n), with the elementwise operations of
    :meth:`CrossbarArray.matmul` and its ``_detect_codes`` in the same order.
    The steps update one (num_vectors, 2 * n) array in place instead of
    allocating one per step, which keeps a wide block's working set small.
    """
    reference = block.segments[0].array
    field_scale = reference.field_scale
    levels = (1 << reference.technology.output_bits) - 1
    noise_model = reference.noise_model
    if noise_model is not None and noise_model.is_field_deterministic:
        noise_model = None  # apply_to_fields is the identity and draws nothing

    modulated = reference.odac.modulate(values)
    fields = modulated @ block.weights
    fields *= field_scale
    if noise_model is not None:
        _apply_noise(block, fields, noise_model)
    quantiser_arg = np.divide(fields, field_scale, out=fields)  # raw dot products
    quantiser_arg /= block.full_scale
    quantiser_arg *= levels
    codes = np.round(quantiser_arg)
    np.clip(codes, 0, levels, out=codes)
    if noise_model is None:
        _repair_boundary_codes(block, codes, quantiser_arg, modulated, field_scale, levels)
    codes /= levels
    codes *= block.full_scale
    return codes


def _apply_noise(block: FusedKBlock, fields: np.ndarray, noise_model) -> None:
    """Perturb ``fields`` in place, segment by segment, as the per-tile loop does.

    Each segment's noise is drawn from its own array's generator on a
    zero-padded (num_vectors, columns) tile block, so the draws match the
    per-tile path.  Zero padding leaves the per-vector additive-noise
    reference (the row's largest field) unchanged: every PCM weight is at
    least the minimum transmission, so a padded column never carries more
    field than a live one.
    """
    for segment in block.segments:
        array = segment.array
        stop = segment.start + segment.width
        tile_fields = np.zeros((fields.shape[0], array.columns))
        tile_fields[:, : segment.width] = fields[:, segment.start : stop]
        noisy = noise_model.apply_to_fields(tile_fields, array.rng)
        fields[:, segment.start : stop] = noisy[:, : segment.width]


def _repair_boundary_codes(
    block: FusedKBlock,
    codes: np.ndarray,
    quantiser_arg: np.ndarray,
    modulated: np.ndarray,
    field_scale: float,
    levels: int,
) -> None:
    """Re-derive near-boundary codes with the per-vector GEMV kernel, in place.

    Each risky (row, tile segment) pair costs one GEMV on the segment's
    padded matrix; the codes of the risky elements are then re-derived from
    those rows in one vectorised step.  Every other element of a repaired row
    lies farther than the window from a boundary, so its GEMV code equals the
    code it already has.
    """
    boundary_distance = np.floor(quantiser_arg)
    np.subtract(quantiser_arg, boundary_distance, out=boundary_distance)
    boundary_distance -= 0.5
    np.abs(boundary_distance, out=boundary_distance)
    risky_rows, risky_columns = np.nonzero(boundary_distance < ADC_BOUNDARY_WINDOW)
    if not risky_rows.size:
        return
    num_vectors = codes.shape[0]
    keys, key_of_element = np.unique(
        block.segment_of_column[risky_columns] * num_vectors + risky_rows,
        return_inverse=True,
    )
    products = np.empty((keys.size, block.segments[0].matrix.shape[1]))
    for index, key in enumerate(keys.tolist()):
        segment_index, row = divmod(key, num_vectors)
        products[index] = modulated[row] @ block.segments[segment_index].matrix
    row_fields = field_scale * products[key_of_element, block.column_offset[risky_columns]]
    row_raw = row_fields / field_scale
    codes[risky_rows, risky_columns] = np.clip(
        np.round(row_raw / block.full_scale[risky_columns] * levels), 0, levels
    )


def compute_entries_per_core(
    entries: Sequence, num_cores: int
) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Fold a :meth:`DualCoreCrossbar.schedule` timeline into per-core totals.

    Returns ``(tile_counts, busy_time_s)`` per core, where busy time is the
    sum of each core's program and compute phase durations — directly
    comparable with the ``per_core_*`` entries of
    :meth:`repro.core.accelerator.OpticalCrossbarAccelerator.functional_statistics`.
    """
    counts = [0] * num_cores
    busy = [0.0] * num_cores
    for entry in entries:
        if entry.core >= num_cores:
            raise SimulationError(
                f"schedule entry on core {entry.core} exceeds num_cores={num_cores}"
            )
        busy[entry.core] += entry.duration_s
        if entry.kind == "compute":
            counts[entry.core] += 1
    return tuple(counts), tuple(busy)
