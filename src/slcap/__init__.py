"""Network-parameter analysis for chip-scale capacitive antenna elements.

The toolkit covers the full bench-to-field loop for a low-impedance capacitive
radiator: Touchstone S-parameter ingestion, impedance and dissipation-factor
analysis, matching-network synthesis with VSWR evaluation, array far-field
patterns with directivity and lobe structure, and statistical comparison of
received-signal field logs.
"""

__version__ = "0.1.0"

from . import impedance, matching, metrics, radiation, rssi, touchstone
from .impedance import *  # noqa: F403
from .matching import *  # noqa: F403
from .metrics import *  # noqa: F403
from .radiation import *  # noqa: F403
from .rssi import *  # noqa: F403
from .touchstone import *  # noqa: F403

# Each module's __all__ is the one list of its public names.
__all__ = [
    "__version__",
    *touchstone.__all__,
    *impedance.__all__,
    *metrics.__all__,
    *matching.__all__,
    *radiation.__all__,
    *rssi.__all__,
]
