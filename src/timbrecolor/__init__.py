"""Timbre-to-color toolkit.

Maps the sideband spectra of frequency-modulated tones onto visible
colors: Bessel-coefficient sidebands, folding of negative frequencies,
octave reduction onto a wavelength axis, and standard-observer
colorimetry down to 8-bit sRGB.  A small gesture layer moves sampled
paths (ADSR envelopes among them) between parameter spaces.
"""

from . import bessel, color, gesture, ppm, spectrum, synth, wavefile
from .bessel import *  # noqa: F403
from .color import *  # noqa: F403
from .gesture import *  # noqa: F403
from .ppm import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .synth import *  # noqa: F403
from .wavefile import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [  # each name is listed once, in its module's __all__
    *bessel.__all__, *color.__all__, *gesture.__all__, *ppm.__all__,
    *spectrum.__all__, *synth.__all__, *wavefile.__all__,
]
