"""Rényi divergences and relative-entropy variational problems on finite
alphabets, for product measures and for Markov pair measures, with spectral
(Perron-root) machinery and certified optimizers.

All logarithms are natural.  Infinite values travel as :class:`ExtReal`
rather than as raw floats, so that undefined combinations fail loudly
instead of silently producing NaN.

Each module's ``__all__`` is its public API, and the only list of it: the
package re-exports every name in those lists, so a new public name is
declared once, in the ``__all__`` of the module that defines it.
"""

from . import config, distributions, errors, extreal, markov, markov_variational, oracles, spectral, variational
from .config import *  # noqa: F403
from .distributions import *  # noqa: F403
from .errors import *  # noqa: F403
from .extreal import *  # noqa: F403
from .markov import *  # noqa: F403
from .markov_variational import *  # noqa: F403
from .oracles import *  # noqa: F403
from .spectral import *  # noqa: F403
from .variational import *  # noqa: F403

_MODULES = (config, distributions, errors, extreal, markov, markov_variational, oracles, spectral, variational)

__version__ = "0.1.0"

__all__ = [*(name for module in _MODULES for name in module.__all__), "__version__"]
del _MODULES
