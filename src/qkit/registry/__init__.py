"""Identity registry: importing this package registers every identity."""

from . import prelim  # noqa: F401
from . import contour  # noqa: F401
from . import mellin  # noqa: F401
from . import fourier  # noqa: F401
from . import series_ids  # noqa: F401
