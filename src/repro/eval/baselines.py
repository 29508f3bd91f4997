"""Forecast baselines for the Fig 9 comparison.

Every forecaster implements ``forecast(dataset, index, lead_steps) ->
(C_out, H, W)``.  The comparator roles map to the paper's panel:

================================  ===========================================
paper comparator                  stand-in here
================================  ===========================================
IFS (ECMWF numerical model)       :class:`NumericalSurrogateForecaster` —
                                  integrates the synthetic world's own
                                  dynamics with perturbed parameters
FourCastNet (task-specific AI)    :class:`FFTFilterForecaster` — a tuned
                                  spectral damping/advection operator, i.e.
                                  a minimal Fourier operator model
ClimaX / Stormer / ORBIT          :class:`ModelForecaster` over trained
                                  ViTs (with/without pre-training, QK-LN)
trivial references                :class:`PersistenceForecaster`,
                                  :class:`ClimatologyForecaster`
================================  ===========================================
"""

from __future__ import annotations

import numpy as np

from repro.data.climatology import Climatology
from repro.data.dataset import ClimateDataset
from repro.data.normalization import Normalizer
from repro.data.synthetic import HOURS_PER_STEP
from repro.nn import ForwardTape


class PersistenceForecaster:
    """Tomorrow looks like today: the input state is the forecast."""

    name = "persistence"

    def forecast(self, dataset: ClimateDataset, index: int, lead_steps: int) -> np.ndarray:
        return dataset.target(index)


class ClimatologyForecaster:
    """Forecast the climatology (wACC exactly 0 by construction)."""

    name = "climatology"

    def __init__(self, climatology: Climatology):
        self.climatology = climatology

    def forecast(self, dataset: ClimateDataset, index: int, lead_steps: int) -> np.ndarray:
        return self.climatology.mean_fields.astype(np.float32)


class NumericalSurrogateForecaster:
    """The IFS stand-in: imperfect-physics integration of the true dynamics."""

    name = "numerical (IFS-like)"

    def __init__(self, persistence_error: float = 0.005, advection_error: float = 0.05):
        self.persistence_error = persistence_error
        self.advection_error = advection_error

    def forecast(self, dataset: ClimateDataset, index: int, lead_steps: int) -> np.ndarray:
        return dataset.system.numerical_forecast(
            dataset.absolute_step(index),
            lead_steps,
            persistence_error=self.persistence_error,
            advection_error=self.advection_error,
            names=dataset.out_names,
        )


class FFTFilterForecaster:
    """FourCastNet-like spectral operator fitted on training data.

    Learns, per output variable and zonal wavenumber, the complex
    multiplier that best maps today's anomaly spectrum to the
    ``lead``-step-ahead spectrum (least squares over training pairs) —
    the essence of a Fourier-operator forecast model at minimal size.
    """

    name = "spectral operator (FourCastNet-like)"

    def __init__(self, train_dataset: ClimateDataset, climatology: Climatology,
                 num_fit_samples: int = 24):
        self.climatology = climatology
        self.train_dataset = train_dataset
        self.num_fit_samples = num_fit_samples
        self._operators: dict[int, np.ndarray] = {}

    def _anomaly(self, dataset: ClimateDataset, index: int) -> np.ndarray:
        return dataset.target(index).astype(np.float64) - self.climatology.mean_fields

    def _fit(self, lead_steps: int) -> np.ndarray:
        ds = self.train_dataset
        max_index = ds.max_input_index(lead_steps)
        indices = np.linspace(0, max_index, min(self.num_fit_samples, max_index + 1), dtype=int)
        num = None
        den = None
        for index in indices:
            x = np.fft.rfft(self._anomaly(ds, int(index)), axis=-1)
            y = np.fft.rfft(self._anomaly(ds, int(index) + lead_steps), axis=-1)
            contrib_num = (np.conj(x) * y).sum(axis=-2)  # sum over latitude
            contrib_den = (np.conj(x) * x).sum(axis=-2).real
            num = contrib_num if num is None else num + contrib_num
            den = contrib_den if den is None else den + contrib_den
        return num / np.maximum(den, 1e-9)

    def forecast(self, dataset: ClimateDataset, index: int, lead_steps: int) -> np.ndarray:
        if lead_steps not in self._operators:
            self._operators[lead_steps] = self._fit(lead_steps)
        operator = self._operators[lead_steps]  # (C, nfreq)
        x = np.fft.rfft(self._anomaly(dataset, index), axis=-1)
        y = x * operator[:, None, :]
        anomaly = np.fft.irfft(y, n=dataset.system.grid.nlon, axis=-1)
        return (anomaly + self.climatology.mean_fields).astype(np.float32)


class ModelForecaster:
    """Wrap a trained ViT (ORBIT/ClimaX/Stormer-like) as a forecaster."""

    def __init__(self, model, normalizer: Normalizer, name: str = "model"):
        self.model = model
        self.infer = ForwardTape(model)
        self.normalizer = normalizer
        self.name = name

    def forecast(self, dataset: ClimateDataset, index: int, lead_steps: int) -> np.ndarray:
        x = self.normalizer.normalize(dataset.snapshot(index))[None]
        lead = np.asarray([lead_steps * HOURS_PER_STEP], dtype=np.float32)
        pred = self.infer(x.astype(np.float32), lead)[0]
        return self.normalizer.denormalize(pred, names=dataset.out_names)
