"""rolewire: role-aware graph rewiring via approximate equitable partitions.

The library groups nodes by structural role (tolerance-relaxed equitable
partitions), augments the graph with one virtual representative per role,
and evaluates the rewiring with spectral role-lift diagnostics, effective
resistance, two-hop class similarity, and a linear-GNN teacher-student
harness.

The top level re-exports each module's `__all__` and every exception
class in `errors`; the modules' own lists are the one declaration of
the public API.
"""

__version__ = "0.1.0"

from .errors import *
from .graph import *
from .partition import *
from .rewire import *
from .spectral import *
from .metrics import *
from .teacher_student import *
from .generators import *
