"""Latent-dynamics synthetic Earth system generator.

All synthetic variables are driven by one shared set of **latent
spectral modes** evolving as a damped, zonally-advected AR(1) process —
a minimal analogue of large-scale atmospheric dynamics:

* *shared latents* give physically-plausible cross-variable correlation
  (a model can predict temperature from wind and pressure);
* *AR(1) persistence* makes short leads much easier than long leads, so
  forecast skill decays with lead time the way Fig 9 needs;
* *zonal advection* creates translating weather patterns;
* *seasonal forcing* and latitudinal climatology give each variable a
  realistic deterministic structure, so anomaly metrics (wACC) behave
  like they do on reanalysis data.

A second integration of the same latent dynamics with perturbed
parameters and no stochastic forcing serves as the "numerical model"
baseline (the IFS stand-in of Fig 9): nearly perfect at short leads,
drifting at long leads.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.data.grid import LatLonGrid
from repro.data.variables import VariableRegistry
from repro.utils.seeding import SeedSequenceFactory

#: Six-hourly cadence (paper Sec IV): four observations per day.
STEPS_PER_DAY = 4
STEPS_PER_YEAR = 1460
HOURS_PER_STEP = 6.0

_CHECKPOINT_INTERVAL = 256
#: How many recently produced latent states :meth:`ClimateSystemModel.
#: latents_at` keeps besides the checkpoints (under 1.3 KiB each).  One
#: checkpoint interval: the longest cold walk fits, and a working set
#: of a few hundred time steps is integrated once.
_MEMO_STATES = 256


@dataclass(frozen=True)
class LatentSpec:
    """Parameters of the shared latent dynamics."""

    num_modes_lat: int = 6
    num_modes_lon: int = 12
    #: AR(1) coefficient per 6-hour step; 0.97 gives an e-folding time
    #: of about 8 days (synoptic).
    persistence: float = 0.97
    #: zonal phase advance per step, in grid cells (westerlies).
    advection_cells_per_step: float = 0.7
    #: power-law slope of the mode amplitude spectrum.
    spectral_slope: float = 1.2

    def __post_init__(self):
        if not 0 < self.persistence < 1:
            raise ValueError("persistence must be in (0, 1)")
        if self.num_modes_lat < 1 or self.num_modes_lon < 1:
            raise ValueError("need at least one mode per axis")


class ClimateSystemModel:
    """One synthetic Earth (or one synthetic climate model of it).

    Parameters
    ----------
    grid, registry:
        Spatial grid and variable inventory.
    seed:
        Controls the latent noise realization and source-specific
        structure.  Two models with different seeds are different
        "worlds"; CMIP6 sources perturb ``spec`` instead, sharing the
        coupling structure (same Earth physics, different dynamics).
    spec:
        Latent dynamics parameters.
    coupling_seed:
        Seed of the variable-coupling structure; shared across CMIP6
        sources so all sources describe the same kind of planet.
    """

    def __init__(
        self,
        grid: LatLonGrid,
        registry: VariableRegistry,
        seed: int = 0,
        spec: LatentSpec = LatentSpec(),
        coupling_seed: int = 0xC11A,
    ):
        self.grid = grid
        self.registry = registry
        # Clamp the spectral truncation to what the grid can represent.
        spec = dataclasses.replace(
            spec,
            num_modes_lat=min(spec.num_modes_lat, max(1, grid.nlat - 2)),
            num_modes_lon=min(spec.num_modes_lon, max(1, grid.nlon // 2 - 1)),
        )
        self.spec = spec
        self.seed = int(seed)
        self._seeds = SeedSequenceFactory(self.seed)
        self._coupling_seeds = SeedSequenceFactory(int(coupling_seed))
        self._mode_shape = (spec.num_modes_lat, spec.num_modes_lon)

        # Mode amplitudes: power-law decay over total wavenumber.
        ky = np.arange(1, spec.num_modes_lat + 1)[:, None]
        kx = np.arange(1, spec.num_modes_lon + 1)[None, :]
        wavenumber = np.sqrt(ky**2 + kx**2)
        self._mode_amplitude = wavenumber ** (-spec.spectral_slope)
        self._mode_amplitude /= np.sqrt((self._mode_amplitude**2).sum())

        # Zonal advection: phase rotation per step for each zonal mode.
        phase = 2j * np.pi * kx * spec.advection_cells_per_step / grid.nlon
        self._advection = np.exp(phase)
        # Stationary AR(1) noise scale so latents stay unit-variance.
        self._noise_scale = math.sqrt(1.0 - spec.persistence**2)

        self._couplings = {v.name: self._make_coupling(v.name) for v in registry}
        self._static_fields = {
            v.name: self._make_static_field(v) for v in registry if v.is_static
        }
        initial = self._initial_latents()
        initial.setflags(write=False)
        self._checkpoints: dict[int, np.ndarray] = {0: initial}
        #: The last ``_MEMO_STATES`` states ``latents_at`` produced, oldest first.
        self._memo: OrderedDict[int, np.ndarray] = OrderedDict()

    # -- construction helpers ---------------------------------------------------
    def _complex_normal(self, rng: np.random.Generator, shape) -> np.ndarray:
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)

    def _make_coupling(self, name: str) -> np.ndarray:
        """Variable-to-latent projection, normalized to unit field variance."""
        rng = np.random.default_rng(self._coupling_seeds.sequence("coupling", name))
        coupling = self._complex_normal(rng, self._mode_shape) * self._mode_amplitude
        field = self._modes_to_field(coupling)
        std = field.std()
        probe = self._complex_normal(rng, self._mode_shape)
        probe_std = self._modes_to_field(coupling * probe).std()
        norm = max((std + probe_std) / 2.0, 1e-12)
        return coupling / norm

    def _make_static_field(self, variable) -> np.ndarray:
        rng = np.random.default_rng(self._coupling_seeds.sequence("static", variable.name))
        modes = self._complex_normal(rng, self._mode_shape) * self._mode_amplitude
        field = self._modes_to_field(modes)
        field = field / max(field.std(), 1e-12)
        return (variable.mean + variable.std * field).astype(np.float64)

    def _initial_latents(self) -> np.ndarray:
        rng = np.random.default_rng(self._seeds.sequence("init"))
        return self._complex_normal(rng, self._mode_shape)

    # -- latent dynamics ------------------------------------------------------
    def _step_noise(self, t: int) -> np.ndarray:
        rng = np.random.default_rng(self._seeds.sequence("noise", t))
        return self._complex_normal(rng, self._mode_shape)

    def _evolve(self, state: np.ndarray, t: int, noise: bool = True) -> np.ndarray:
        """One 6-hour step of the latent AR(1) with advection."""
        out = self.spec.persistence * self._advection * state
        if noise:
            out = out + self._noise_scale * self._step_noise(t)
        return out

    def latents_at(self, t: int) -> np.ndarray:
        """Latent state at step ``t`` (deterministic given the seed).

        Cost: one :meth:`_evolve` per step from the nearest retained
        state at or below ``t`` — none when ``t`` itself is memoized or
        a checkpoint, at most ``_CHECKPOINT_INTERVAL`` once a walk has
        passed ``t``, and ``t`` on a fresh system.  Every state the walk
        produces is retained: multiples of ``_CHECKPOINT_INTERVAL`` for
        good, the others until ``_MEMO_STATES`` newer ones have been
        produced.  The returned array is the retained object itself and
        read-only; whichever state a walk starts from, the chain of
        float operations to ``t`` is the same, so the bits are too.
        """
        if t < 0:
            raise ValueError("time step must be non-negative")
        for start in range(t, -1, -1):
            state = self._memo.get(start, self._checkpoints.get(start))
            if state is not None:
                break
        for step in range(start + 1, t + 1):
            state = self._evolve(state, step - 1)
            state.setflags(write=False)
            if step % _CHECKPOINT_INTERVAL == 0:
                self._checkpoints[step] = state
            else:
                self._memo[step] = state
                if len(self._memo) > _MEMO_STATES:
                    self._memo.popitem(last=False)
        return state

    # -- field synthesis --------------------------------------------------------
    def _modes_to_field(self, modes: np.ndarray) -> np.ndarray:
        """Place low-frequency modes into an rfft2 spectrum and invert."""
        nlat, nlon = self.grid.shape
        spectrum = np.zeros((nlat, nlon // 2 + 1), dtype=complex)
        my, mx = self._mode_shape
        spectrum[1 : my + 1, 1 : mx + 1] = modes
        # Scale so unit-variance modes give an O(1)-variance field.
        return np.fft.irfft2(spectrum, s=(nlat, nlon)) * nlat * nlon / math.sqrt(my * mx)

    def day_of_year(self, t: int) -> float:
        return (t % STEPS_PER_YEAR) / STEPS_PER_DAY

    def climatology_field(self, name: str, t: int) -> np.ndarray:
        """The deterministic (seasonal + latitudinal) part of a variable."""
        variable = self.registry[name]
        if variable.is_static:
            return self._static_fields[name].copy()
        lat = np.deg2rad(self.grid.latitudes)[:, None]
        lat_profile = np.cos(lat) - 2.0 / math.pi  # zero-mean equator-pole gradient
        profile_strength = 0.8 if variable.units == "K" else 0.2
        season = math.sin(2.0 * math.pi * self.day_of_year(t) / 365.25)
        seasonal = variable.seasonal_amplitude * season * np.sin(lat)
        field = variable.mean + variable.std * (
            profile_strength * lat_profile + seasonal
        )
        return np.broadcast_to(field, self.grid.shape).copy()

    def field(self, name: str, t: int, latents: np.ndarray | None = None) -> np.ndarray:
        """One variable's field at step ``t`` (shape ``(nlat, nlon)``)."""
        variable = self.registry[name]
        if variable.is_static:
            return self._static_fields[name].copy()
        if latents is None:
            latents = self.latents_at(t)
        anomaly = self._modes_to_field(self._couplings[name] * latents)
        clim = self.climatology_field(name, t)
        return clim + variable.std * variable.latent_coupling * anomaly

    def snapshot(self, t: int) -> np.ndarray:
        """All channels at step ``t`` (shape ``(C, nlat, nlon)``, float32)."""
        latents = self.latents_at(t)
        fields = [self.field(v.name, t, latents=latents) for v in self.registry]
        return np.stack(fields).astype(np.float32)

    # -- numerical-model surrogate (the IFS stand-in) ----------------------------
    def numerical_forecast(
        self,
        t: int,
        lead_steps: int,
        persistence_error: float = 0.005,
        advection_error: float = 0.05,
        names: list[str] | None = None,
    ) -> np.ndarray:
        """Integrate the latent dynamics forward without noise.

        Starts from the *true* state at ``t`` (perfect initialization)
        and integrates with slightly wrong parameters and no stochastic
        forcing — the error structure of a physics model: excellent at
        short leads, drifting toward climatology at long leads.
        """
        state = self.latents_at(t)
        wrong_persistence = min(0.999, self.spec.persistence * (1.0 - persistence_error))
        kx = np.arange(1, self.spec.num_modes_lon + 1)[None, :]
        wrong_advection = np.exp(
            2j * np.pi * kx
            * self.spec.advection_cells_per_step * (1.0 + advection_error)
            / self.grid.nlon
        )
        for _ in range(lead_steps):
            state = wrong_persistence * wrong_advection * state
        target_t = t + lead_steps
        names = list(self.registry.names) if names is None else names
        fields = []
        for name in names:
            variable = self.registry[name]
            if variable.is_static:
                fields.append(self._static_fields[name])
                continue
            anomaly = self._modes_to_field(self._couplings[name] * state)
            clim = self.climatology_field(name, target_t)
            fields.append(clim + variable.std * variable.latent_coupling * anomaly)
        return np.stack(fields).astype(np.float32)
