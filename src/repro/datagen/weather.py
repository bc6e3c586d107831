"""Synthetic weather process.

The paper collects weather records from a historical-weather website and
categorises them into N_wea = 16 types (Section 6.1).  Offline we substitute
a first-order Markov chain over the same 16 categories, sampled once per
hour, with a persistence-dominated transition matrix (weather tends to
stay the same).  Each category carries a speed factor so weather feeds the
traffic model, making the external feature genuinely predictive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

N_WEATHER_TYPES = 16

# Category -> (label, traffic speed factor).  The first few match common
# categories (sunny/cloudy/overcast/...); the long tail covers rarer types
# so the one-hot width matches the paper's N_wea = 16.
WEATHER_TYPES: List[tuple] = [
    ("sunny", 1.00), ("cloudy", 0.99), ("overcast", 0.98),
    ("light_rain", 0.92), ("moderate_rain", 0.86), ("heavy_rain", 0.75),
    ("storm", 0.65), ("light_snow", 0.80), ("moderate_snow", 0.70),
    ("heavy_snow", 0.55), ("fog", 0.82), ("haze", 0.90),
    ("windy", 0.96), ("sleet", 0.72), ("drizzle", 0.94), ("hail", 0.60),
]


@dataclass
class WeatherConfig:
    persistence: float = 0.92        # probability of keeping the category
    hour_seconds: float = 3600.0
    # Stationary propensity of each category (sunny/cloudy dominate).
    base_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0 < self.persistence < 1:
            raise ValueError("persistence must be in (0, 1)")


class WeatherProcess:
    """Hourly Markov weather over ``[0, horizon_seconds)``."""

    def __init__(self, horizon_seconds: float,
                 config: Optional[WeatherConfig] = None, seed: int = 0):
        if horizon_seconds <= 0:
            raise ValueError("horizon must be positive")
        self.config = config or WeatherConfig()
        rng = np.random.default_rng(seed)
        weights = self.config.base_weights
        if weights is None:
            weights = np.array([8.0, 6.0, 4.0, 3.0, 1.5, 0.8, 0.3, 0.8,
                                0.4, 0.2, 1.0, 2.0, 1.5, 0.3, 2.0, 0.1])
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (N_WEATHER_TYPES,):
            raise ValueError(f"need {N_WEATHER_TYPES} base weights")
        probs = weights / weights.sum()

        hours = int(np.ceil(horizon_seconds / self.config.hour_seconds))
        states = np.empty(hours, dtype=np.int64)
        states[0] = rng.choice(N_WEATHER_TYPES, p=probs)
        for h in range(1, hours):
            if rng.random() < self.config.persistence:
                states[h] = states[h - 1]
            else:
                states[h] = rng.choice(N_WEATHER_TYPES, p=probs)
        self._states = states
        self.horizon_seconds = float(horizon_seconds)

    @property
    def hourly_categories(self) -> np.ndarray:
        """The category id of every hour of the horizon."""
        return self._states

    def category(self, t: float) -> int:
        """Weather category id at time t (clamped to the horizon)."""
        if t < 0:
            raise ValueError("time must be non-negative")
        idx = min(int(t // self.config.hour_seconds), len(self._states) - 1)
        return int(self._states[idx])

    def categories(self, times) -> np.ndarray:
        """:meth:`category` of every time, as one int64 gather."""
        t = np.asarray(times, dtype=np.float64)
        # A NaN fails both comparisons, an infinity the second.
        if t.size and not (t.min() >= 0.0 and t.max() < np.inf):
            raise ValueError("time must be finite and non-negative")
        # Clip in float first: int64 cannot hold t // hour for any t.
        idx = np.minimum(t // self.config.hour_seconds,
                         len(self._states) - 1)
        return self._states[idx.astype(np.int64)]

    def label(self, t: float) -> str:
        return WEATHER_TYPES[self.category(t)][0]

    def speed_factor(self, t: float) -> float:
        """Traffic speed multiplier implied by the weather at time t."""
        return WEATHER_TYPES[self.category(t)][1]

    def one_hot(self, t: float) -> np.ndarray:
        """N_wea-dimensional one-hot code O_wea (Section 4.5)."""
        vec = np.zeros(N_WEATHER_TYPES)
        vec[self.category(t)] = 1.0
        return vec
