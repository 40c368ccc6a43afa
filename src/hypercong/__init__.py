"""hypercong: exact-arithmetic verification of truncated hypergeometric
supercongruences, prime by prime, over arbitrary-precision rationals.

The package exports each module's ``__all__``, the one list of its public
names.  Caps are in no list: read them through their module, at call time.
"""

from .exact_core import *  # noqa: F403
from .jets import *  # noqa: F403
from .padic import *  # noqa: F403
from .series import *  # noqa: F403
from .verify import *  # noqa: F403
from .cli import *  # noqa: F403
from . import cli, exact_core, jets, padic, series, verify

__all__ = [*exact_core.__all__, *jets.__all__, *padic.__all__,
           *series.__all__, *verify.__all__, *cli.__all__]

__version__ = "0.1.0"
