"""Score binning shared by the density model and the label encoders.

Trait scores live on [0, 1] but only a central slice of that range is
considered reliable, so a scheme covers [lo, hi] with n_bins equal-width
bins.  Bin k spans [lo + k*w, lo + (k+1)*w) with w = (hi - lo) / n_bins;
the last bin additionally includes hi itself.  Each bin is named by its
midpoint, which doubles as the numeric label a classifier predicts.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError

# Scores arrive as decimal literals (0.3, 0.44, ...) whose float forms sit a
# hair below the intended bin edge.  Positions within this fraction of a bin
# width from the upper edge are snapped up before flooring.
EDGE_EPS = 1e-9

# Every bin needs training samples, so no usable scheme comes near this cap;
# at the cap the labels tuple holds about 2 MB.
MAX_BINS = 2**16


@dataclass(frozen=True)
class BinningScheme:
    lo: float = 0.1
    hi: float = 0.9
    n_bins: int = 8
    labels: tuple = field(init=False)

    def __post_init__(self):
        if self.n_bins > MAX_BINS:
            raise DatasetError(f"binning field 'n_bins' must be at most {MAX_BINS}, "
                               f"got {self.n_bins}")
        for name in ("lo", "hi"):
            if not math.isfinite(getattr(self, name)):
                raise DatasetError(f"binning field {name!r} must be finite, "
                                   f"got {getattr(self, name)!r}")
        if not (self.lo < self.hi):
            raise DatasetError(f"binning requires lo < hi, got {self.lo} >= {self.hi}")
        if self.n_bins < 2:
            raise DatasetError(f"binning requires at least 2 bins, got {self.n_bins}")
        w = (self.hi - self.lo) / self.n_bins
        if not math.isfinite(w):
            raise DatasetError(f"binning width (hi - lo) / n_bins must be finite, got {w!r} "
                               f"for lo={self.lo!r}, hi={self.hi!r}")
        # Midpoints rounded to 12 decimals so the default scheme yields the
        # exact literals 0.15, 0.25, ..., 0.85 rather than float noise.
        labels = tuple(round(self.lo + (k + 0.5) * w, 12) for k in range(self.n_bins))
        object.__setattr__(self, "labels", labels)

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.n_bins

    def contains(self, score):
        """Whether a score lies in [lo, hi]; elementwise on an array."""
        span = self.hi - self.lo
        return (self.lo - EDGE_EPS * span <= score) & (score <= self.hi + EDGE_EPS * span)

    def bin_index(self, score: float) -> int:
        """Map a score to its bin, raising if it falls outside [lo, hi]."""
        if not self.contains(score):
            raise DatasetError(
                f"score {score!r} outside binning range [{self.lo}, {self.hi}]"
            )
        return int(self.bin_indices(score))

    def bin_indices(self, scores) -> np.ndarray:
        """bin_index over an array of scores, naming the first offending row
        on error."""
        scores = np.asarray(scores, dtype=float)
        inside = self.contains(scores)
        if not inside.all():  # NaN is never inside
            i = int(np.argmin(inside))
            raise DatasetError(
                f"row {i}: score {scores[i]!r} outside binning range "
                f"[{self.lo}, {self.hi}]"
            )
        # The last bin also takes hi itself, and noise just above it.
        k = np.floor((scores - self.lo) / self.width + EDGE_EPS)
        return np.clip(k, 0, self.n_bins - 1).astype(int)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "n_bins": self.n_bins}

    @classmethod
    def from_dict(cls, d: dict) -> "BinningScheme":
        """Scheme from its JSON form; lo and hi must be numbers and n_bins an
        integer (never a bool, a float or a string)."""
        if not isinstance(d, dict):
            raise DatasetError(f"binning must be an object, got {d!r}")
        for key, kinds, kind in (("lo", (int, float), "a number"),
                                 ("hi", (int, float), "a number"),
                                 ("n_bins", (int,), "an integer")):
            if type(d.get(key)) not in kinds:
                raise DatasetError(f"binning field {key!r} must be {kind}, got {d.get(key)!r}")
        return cls(lo=float(d["lo"]), hi=float(d["hi"]), n_bins=d["n_bins"])


DEFAULT_BINNING = BinningScheme()
