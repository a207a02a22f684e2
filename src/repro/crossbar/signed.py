"""Signed matrix-matrix multiplication on the absorption-only crossbar.

PCM cells can only attenuate, so crossbar weights are restricted to [0, 1]
(the paper maps all weights to 64 levels between 0 and 1).  Real CNN layers
have signed weights and, after the first layer, non-negative (ReLU)
activations.  :class:`SignedCrossbarEngine` handles the general signed case
with the standard differential decomposition:

* weights:  ``W = W+ - W-`` with both parts in [0, 1] after scaling;
* inputs:   ``x = x+ - x-`` with both parts in [0, 1] after scaling;

so a signed GEMM becomes at most four non-negative crossbar passes whose
results are combined digitally.  For ReLU networks the input decomposition
collapses to a single differential pass.

Batched execution model
-----------------------
:meth:`SignedCrossbarEngine.matmul` is the primitive: the whole
(num_vectors, rows) batch is normalised with *per-vector* input scales via
broadcasting and pushed through the underlying
:meth:`~repro.crossbar.array.CrossbarArray.matmul` GEMM passes.  When the
entire batch is non-negative — the common case after ReLU — the two
negative-input passes are skipped outright.  Vectors that do contain negative
entries only add zero-rows for the all-positive vectors in the batch, which
contribute exact zeros, so batched outputs match the per-vector path bitwise
in noiseless mode.  :meth:`matvec` is a thin single-row wrapper.

This is the single-tile API.  The accelerator's network datapath runs the
same signed decomposition for every tile of a k-block at once (see
:mod:`repro.core.sharding`) and matches :meth:`matmul` bitwise.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.config.technology import TechnologyConfig
from repro.crossbar.array import CrossbarArray
from repro.errors import SimulationError
from repro.nn.quant import split_signed_matrix


class SignedCrossbarEngine:
    """Runs signed GEMMs on one or two functional crossbar arrays.

    Parameters
    ----------
    rows, columns:
        Physical array dimensions.
    technology:
        Device constants (precisions, PCM levels).
    noise_model:
        Optional impairment model forwarded to the underlying arrays.
    """

    def __init__(
        self,
        rows: int,
        columns: int,
        technology: Optional[TechnologyConfig] = None,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.rows = rows
        self.columns = columns
        self.technology = technology or TechnologyConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.positive_array = CrossbarArray(
            rows, columns, self.technology, noise_model=noise_model, rng=rng
        )
        self.negative_array = CrossbarArray(
            rows, columns, self.technology, noise_model=noise_model, rng=rng
        )
        self._weight_scale = 1.0
        self._programmed = False

    # ------------------------------------------------------------------ weights
    def program(
        self,
        weights: np.ndarray,
        out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Program a signed weight matrix of shape (rows, columns).

        ``out`` optionally names the (positive, negative) storage the two
        arrays keep their quantised matrices in (see
        :meth:`CrossbarArray.program_weights`).
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.rows, self.columns):
            raise SimulationError(
                f"weights must have shape ({self.rows}, {self.columns}), got {weights.shape}"
            )
        scale = float(np.max(np.abs(weights)))
        self._weight_scale = scale if scale > 0 else 1.0
        positive, negative = split_signed_matrix(weights / self._weight_scale)
        positive_out, negative_out = out if out is not None else (None, None)
        self.positive_array.program_weights(positive, out=positive_out)
        self.negative_array.program_weights(negative, out=negative_out)
        self._programmed = True

    @property
    def weight_scale(self) -> float:
        """Scale factor by which the programmed weights were normalised."""
        return self._weight_scale

    @property
    def is_programmed(self) -> bool:
        """True once :meth:`program` has been called."""
        return self._programmed

    # ------------------------------------------------------------------ compute
    def matvec(self, inputs: np.ndarray) -> np.ndarray:
        """Signed ``weights.T @ inputs`` for one vector (wraps :meth:`matmul`)."""
        if not self._programmed:
            raise SimulationError("program() must be called before matvec()")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (self.rows,):
            raise SimulationError(
                f"inputs must have shape ({self.rows},), got {inputs.shape}"
            )
        return self.matmul(inputs[None, :])[0]

    def matmul(self, inputs: np.ndarray) -> np.ndarray:
        """Signed GEMM for a batch of input vectors, shape (num_vectors, rows).

        Each vector is normalised by its own max-magnitude scale
        (broadcasting), split into non-negative positive/negative parts, and
        the whole batch runs through the differential crossbar passes as
        GEMMs.  The two negative-input passes are skipped when the entire
        batch is non-negative (the common ReLU case).
        """
        if not self._programmed:
            raise SimulationError("program() must be called before matmul()")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows:
            raise SimulationError(
                f"inputs must have shape (num_vectors, {self.rows}), got {inputs.shape}"
            )

        input_scales = np.max(np.abs(inputs), axis=1)
        if not np.any(input_scales > 0.0):
            return np.zeros((inputs.shape[0], self.columns))
        # Zero vectors keep a unit scale so the division is well-defined; their
        # normalised rows are all-zero and produce exact zero outputs.
        safe_scales = np.where(input_scales > 0.0, input_scales, 1.0)
        normalised = inputs / safe_scales[:, None]
        positive_in = np.clip(normalised, 0.0, None)
        negative_in = np.clip(-normalised, 0.0, None)

        result = self.positive_array.matmul(positive_in) - self.negative_array.matmul(
            positive_in
        )
        if np.any(negative_in > 0):
            result -= self.positive_array.matmul(negative_in) - self.negative_array.matmul(
                negative_in
            )
        return result * self._weight_scale * input_scales[:, None]

    # ------------------------------------------------------------------ report
    def statistics(self) -> Dict[str, float]:
        """Programming statistics of both underlying arrays."""
        positive = self.positive_array.statistics()
        negative = self.negative_array.statistics()
        return {
            "programming_events": positive["programming_events"]
            + negative["programming_events"],
            "programming_energy_j": positive["programming_energy_j"]
            + negative["programming_energy_j"],
            "programming_time_s": max(
                positive["programming_time_s"], negative["programming_time_s"]
            ),
        }
