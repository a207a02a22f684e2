"""Analytical functional model of the N×M coherent crossbar array.

The array implements Eq. (1) of the paper:

    E_c[j] = (E_laser / (N * sqrt(M))) * sum_i |v_in[i]| * w[i, j]

The input splitter tree delivers ``E_laser / sqrt(N)`` to each row, the
column-dependent input couplers ``k_in[j]`` spread each row's field equally
over the M columns, the PCM cell multiplies by the programmed weight, and the
row-dependent output couplers ``k_out[i]`` combine the column contributions
so that every unit cell's product is represented with equal strength —
costing an additional field factor of ``1/sqrt(N)``, which is the price of
single-wavelength operation.

``CrossbarArray`` works with field *magnitudes* (the calibrated, phase-matched
array); phase errors and their calibration are modelled separately in
:mod:`repro.crossbar.noise` and :mod:`repro.crossbar.calibration`.

Batched execution model
-----------------------
:meth:`CrossbarArray.matmul` is the compute primitive: a whole batch of input
vectors is ODAC-modulated, multiplied against the programmed weight matrix in
a single BLAS GEMM (``modulated @ weights``), and detected/quantised as one
2-D field matrix.  :meth:`matvec` is a thin single-row wrapper around it.

In noiseless (deterministic) operation the batched path is guaranteed to
produce ADC output codes bitwise-identical to streaming the vectors one at a
time: BLAS GEMM and GEMV kernels can disagree in the last ulp, so after the
batched detection any output whose quantiser argument lands within
:data:`ADC_BOUNDARY_WINDOW` of a rounding boundary has its row recomputed
with the per-vector GEMV kernel before the ADC code is emitted (see
``_detect_codes``).  The analog
(``quantize_output=False``) results may still differ from the per-vector path
at the last-ulp level — only the quantised datapath carries the bitwise
guarantee, which is what the functional INT6 network execution uses.

This class is the single-tile API and the reference for the accelerator's
network datapath, which does not call :meth:`matmul`:
:class:`~repro.core.sharding.ShardedExecutionEngine` runs every tile of a
k-block in one fused GEMM against a shared weight buffer and repairs against
the same per-vector GEMV on each tile's matrix.  An array programmed with
``program_weights(..., out=buffer_view)`` keeps its matrix in that buffer, so
the accelerator stores each programmed tile once.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.config.technology import TechnologyConfig
from repro.errors import ProgrammingError, SimulationError
from repro.photonics.pcm import quantize_weight_matrix
from repro.photonics.ring import RingResonatorODAC

#: Half-LSB window (in ADC-code units) around a rounding boundary inside
#: which a batched GEMM result is re-derived with the per-vector GEMV kernel.
#: BLAS GEMM-vs-GEMV discrepancies are ~1e-11 code units, far below this.
ADC_BOUNDARY_WINDOW = 1e-6


def design_input_coupling(columns: int) -> np.ndarray:
    """Power cross-coupling ratios ``k_in[j]`` for the input (row) couplers.

    Column ``j`` (0-indexed, left to right) must tap off ``1/(M - j)`` of the
    *remaining* row power so that every column receives the same ``1/M`` share
    of the row input:  ``k_in[0] = 1/M``, ..., ``k_in[M-1] = 1``.
    """
    if columns < 1:
        raise SimulationError(f"columns must be >= 1, got {columns}")
    return 1.0 / (columns - np.arange(columns))


def design_output_coupling(rows: int) -> np.ndarray:
    """Power cross-coupling ratios ``k_out[i]`` for the output (column) couplers.

    Row ``i``'s product joins a column waveguide that already carries the
    combined products of rows 0..i-1.  For every row's contribution to reach
    the detector with equal weight ``1/sqrt(N)`` (in field), row ``i`` must
    inject with ``k_out[i] = 1/(i + 1) / (remaining transmission)``; solving
    the recursion gives ``k_out[i] = 1/(i + 1)`` when counted from the top of
    the column.
    """
    if rows < 1:
        raise SimulationError(f"rows must be >= 1, got {rows}")
    return 1.0 / np.arange(1, rows + 1)


class CrossbarArray:
    """Functional N×M coherent PCM crossbar core.

    Parameters
    ----------
    rows, columns:
        Array dimensions (N × M).
    technology:
        Supplies the PCM level count, ODAC resolution/OMA and ADC resolution.
    laser_field:
        Magnitude of the laser E-field entering the splitter tree (arbitrary
        units; results are normalised before being returned).
    noise_model:
        Optional :class:`~repro.crossbar.noise.CrossbarNoiseModel` applied to
        the column outputs.
    rng:
        Random generator used by the noise model.
    """

    def __init__(
        self,
        rows: int,
        columns: int,
        technology: Optional[TechnologyConfig] = None,
        laser_field: float = 1.0,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if rows < 1 or columns < 1:
            raise SimulationError(f"array dimensions must be >= 1, got {rows}x{columns}")
        if laser_field <= 0:
            raise SimulationError(f"laser_field must be > 0, got {laser_field}")
        self.rows = rows
        self.columns = columns
        self.technology = technology or TechnologyConfig()
        self._laser_field = float(laser_field)
        self._field_scale: Optional[float] = None
        self.noise_model = noise_model
        self.rng = rng if rng is not None else np.random.default_rng(0)

        self.input_coupling = design_input_coupling(columns)
        self.output_coupling = design_output_coupling(rows)
        self.odac = RingResonatorODAC(
            bits=self.technology.activation_bits,
            oma_penalty_db=0.0,  # The OMA penalty is carried by the link budget.
        )

        self._weights = np.zeros((rows, columns))
        self._programmed = False
        self._programming_events = 0
        self._programming_energy_j = 0.0
        self._programming_time_s = 0.0
        self._adc_full_scale = float(rows)

    # ------------------------------------------------------------------ laser
    @property
    def laser_field(self) -> float:
        """Magnitude of the laser E-field entering the splitter tree."""
        return self._laser_field

    @laser_field.setter
    def laser_field(self, value: float) -> None:
        if value <= 0:
            raise SimulationError(f"laser_field must be > 0, got {value}")
        self._laser_field = float(value)
        self._field_scale = None

    @property
    def field_scale(self) -> float:
        """Architectural field scale ``E_laser / (N * sqrt(M))`` of Eq. (1).

        Cached; invalidated when :attr:`laser_field` is reassigned.
        """
        if self._field_scale is None:
            self._field_scale = self._laser_field / (self.rows * math.sqrt(self.columns))
        return self._field_scale

    # ------------------------------------------------------------------ weights
    @property
    def weights(self) -> np.ndarray:
        """The currently programmed (quantised) weight matrix, shape (N, M)."""
        return self._weights.copy()

    @property
    def is_programmed(self) -> bool:
        """True once :meth:`program_weights` has been called."""
        return self._programmed

    @property
    def adc_full_scale(self) -> float:
        """Dot-product value mapped to the ADC's full-scale code."""
        return self._adc_full_scale

    @property
    def programming_events(self) -> int:
        """Number of full-array programming passes performed so far."""
        return self._programming_events

    @property
    def programming_energy_j(self) -> float:
        """Total PCM programming energy spent so far (J)."""
        return self._programming_energy_j

    @property
    def programming_time_s(self) -> float:
        """Total PCM programming time spent so far (s)."""
        return self._programming_time_s

    def program_weights(
        self, weights: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Quantise ``weights`` to the PCM levels and store them in the array.

        ``weights`` must have shape (rows, columns) with entries in [0, 1]
        (the PCM can only absorb).  When ``out`` is given — a (rows, columns)
        float array, typically a view into a larger buffer — the quantised
        matrix is written into it and the array keeps ``out`` as its storage
        instead of a private copy.  Returns the quantised matrix actually
        stored.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.rows, self.columns):
            raise ProgrammingError(
                f"weight matrix must have shape ({self.rows}, {self.columns}), "
                f"got {weights.shape}"
            )
        quantised = quantize_weight_matrix(
            weights,
            levels=self.technology.pcm_levels,
            min_transmission=self.technology.pcm_min_transmission,
            max_transmission=self.technology.pcm_max_transmission,
        )
        if out is not None:
            if out.shape != (self.rows, self.columns):
                raise ProgrammingError(
                    f"out must have shape ({self.rows}, {self.columns}), got {out.shape}"
                )
            out[...] = quantised
            quantised = out
        self._weights = quantised
        self._programmed = True
        # The receiver's programmable TIA gain is recalibrated per weight tile
        # so that the ADC full scale matches the largest dot product the tile
        # can produce (all inputs at full scale), instead of the worst-case
        # value N.  This keeps the 6-bit ADC's quantisation step proportional
        # to the tile's actual signal range.
        largest_column_sum = float(np.max(np.sum(quantised, axis=0)))
        self._adc_full_scale = max(largest_column_sum, 1e-9)
        self._programming_events += 1
        cells = self.rows * self.columns
        self._programming_energy_j += cells * self.technology.pcm_programming_energy_j
        self._programming_time_s += self._single_pass_time_s()
        return quantised.copy()

    def _single_pass_time_s(self) -> float:
        """Wall-clock time of one programming pass under the configured parallelism."""
        write = self.technology.pcm_programming_time_s
        parallelism = self.technology.pcm_program_parallelism
        if parallelism == "array":
            return write
        if parallelism == "row":
            return self.rows * write
        return self.rows * self.columns * write

    # ------------------------------------------------------------------ compute
    def _products(self, modulated: np.ndarray) -> np.ndarray:
        """``modulated @ weights`` for a (num_vectors, rows) batch.

        A single-row batch uses the 1-D GEMV kernel so that per-vector results
        are reproduced exactly; larger batches use one GEMM call.
        """
        if modulated.shape[0] == 1:
            return (modulated[0] @ self._weights)[None, :]
        return modulated @ self._weights

    def column_fields(self, inputs: np.ndarray) -> np.ndarray:
        """Column output E-fields for normalised ``inputs`` (Eq. (1)).

        ``inputs`` may be a single vector of length ``rows`` or a batch of
        shape (num_vectors, rows), with entries in [0, 1]; each element is
        quantised by the ODAC before modulation.
        """
        if not self._programmed:
            raise SimulationError("the array must be programmed before computing")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 1:
            if inputs.shape != (self.rows,):
                raise SimulationError(
                    f"input vector must have shape ({self.rows},), got {inputs.shape}"
                )
            modulated = self.odac.modulate(inputs)
            fields = self.field_scale * (modulated @ self._weights)
        elif inputs.ndim == 2 and inputs.shape[1] == self.rows:
            modulated = self.odac.modulate(inputs)
            fields = self.field_scale * self._products(modulated)
        else:
            raise SimulationError(
                f"inputs must have shape ({self.rows},) or (num_vectors, {self.rows}), "
                f"got {inputs.shape}"
            )
        if self.noise_model is not None:
            fields = self.noise_model.apply_to_fields(fields, self.rng)
        return fields

    def detect(self, fields: np.ndarray) -> np.ndarray:
        """Coherent detection of column fields into normalised dot products.

        The balanced photocurrent is proportional to ``|E_laser| * |E_c|``;
        dividing by the known architectural scale factor recovers
        ``sum_i v[i] * w[i, j]`` up to quantisation/noise, and the result is
        then quantised to the ADC resolution (``output_bits``) relative to the
        per-tile full scale established when the weights were programmed.
        ``fields`` may be 1-D (one vector's columns) or a 2-D batch.
        """
        fields = np.asarray(fields, dtype=float)
        raw = fields / self.field_scale
        full_scale = self._adc_full_scale
        levels = (1 << self.technology.output_bits) - 1
        codes = np.clip(np.round(raw / full_scale * levels), 0, levels)
        return codes / levels * full_scale

    def matvec(self, inputs: np.ndarray, quantize_output: bool = True) -> np.ndarray:
        """Compute ``weights.T @ inputs`` optically for one input vector.

        Thin wrapper around :meth:`matmul` with a single-row batch.

        Parameters
        ----------
        inputs:
            Normalised input vector in [0, 1] of length ``rows``.
        quantize_output:
            Apply the ADC quantisation (default).  Disable to inspect the
            analog result.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (self.rows,):
            if not self._programmed:
                raise SimulationError("the array must be programmed before computing")
            raise SimulationError(
                f"input vector must have shape ({self.rows},), got {inputs.shape}"
            )
        return self.matmul(inputs[None, :], quantize_output=quantize_output)[0]

    def matmul(self, inputs: np.ndarray, quantize_output: bool = True) -> np.ndarray:
        """Stream a batch of input vectors through the array in one GEMM.

        Parameters
        ----------
        inputs:
            Normalised input vectors in [0, 1], shape (num_vectors, rows).
        quantize_output:
            Apply the ADC quantisation (default).  Disable to inspect the
            analog result.

        The whole batch is modulated, multiplied and detected with whole-array
        numpy operations; in noiseless mode the quantised outputs are bitwise
        identical to streaming the vectors one at a time (see module
        docstring).
        """
        if not self._programmed:
            raise SimulationError("the array must be programmed before computing")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows:
            raise SimulationError(
                f"inputs must have shape (num_vectors, {self.rows}), got {inputs.shape}"
            )
        modulated = self.odac.modulate(inputs)
        fields = self.field_scale * self._products(modulated)
        if self.noise_model is not None:
            fields = self.noise_model.apply_to_fields(fields, self.rng)
        if not quantize_output:
            return fields / self.field_scale
        return self._detect_codes(fields, modulated)

    def _detect_codes(self, fields: np.ndarray, modulated: np.ndarray) -> np.ndarray:
        """Batched ADC detection with per-vector boundary repair.

        When the field datapath is deterministic (no noise model, or one whose
        field impairments are all zero), any element whose quantiser argument falls within
        ``ADC_BOUNDARY_WINDOW`` of a rounding boundary has its whole row
        recomputed with the per-vector GEMV kernel, guaranteeing the emitted
        ADC codes match the per-vector path bitwise.
        """
        scale = self.field_scale
        raw = fields / scale
        full_scale = self._adc_full_scale
        levels = (1 << self.technology.output_bits) - 1
        quantiser_arg = raw / full_scale * levels
        codes = np.clip(np.round(quantiser_arg), 0, levels)
        deterministic = (
            self.noise_model is None or self.noise_model.is_field_deterministic
        )
        if deterministic and fields.shape[0] > 1:
            boundary_distance = np.abs(
                quantiser_arg - np.floor(quantiser_arg) - 0.5
            )
            risky_rows = np.unique(
                np.nonzero(boundary_distance < ADC_BOUNDARY_WINDOW)[0]
            )
            for i in risky_rows:
                row_fields = scale * (modulated[i] @ self._weights)
                if self.noise_model is not None:
                    row_fields = self.noise_model.apply_to_fields(row_fields, self.rng)
                row_raw = row_fields / scale
                codes[i] = np.clip(np.round(row_raw / full_scale * levels), 0, levels)
        return codes / levels * full_scale

    # ------------------------------------------------------------------ report
    def statistics(self) -> Dict[str, float]:
        """Programming statistics of the array."""
        return {
            "rows": self.rows,
            "columns": self.columns,
            "programming_events": self._programming_events,
            "programming_energy_j": self._programming_energy_j,
            "programming_time_s": self._programming_time_s,
        }
