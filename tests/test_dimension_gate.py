"""The analysis layer covers dimensions n >= 3 and rejects a smaller n one way.

Every public function that takes a dimension, or reads it from its flux, raises
BadParameter("dimension must be >= 3, got n") for n < 3, from one helper.
"""

import math

import numpy as np
import pytest

from kstensor import functionals as fn
from kstensor import thresholds as th
from kstensor.errors import BadParameter
from kstensor.matrixflux import FluxTensor, rotation_z

FLUX = FluxTensor.from_matrix(rotation_z(math.pi / 3))

CALLS = {
    # these two take n from the flux, and a 0x0 flux cannot be built
    "aggregation_coefficient": lambda n: fn.aggregation_coefficient(FluxTensor.from_matrix(np.eye(n)), 1.0),
    "moment_rhs_bound": lambda n: fn.moment_rhs_bound(1.0, 1.0, FluxTensor.from_matrix(np.eye(n)), 1.0),
    "admissibility": lambda n: th.admissibility(1.0, 1.0, FLUX, 1.0, n),
    "blowup_constant": lambda n: th.blowup_constant(FLUX, 1.0, n),
    "global_delta": lambda n: th.global_delta(4, n, 1.0, 1.0),
}


FROM_FLUX = ("aggregation_coefficient", "moment_rhs_bound")


@pytest.mark.parametrize(
    "name, n", [(name, n) for name in sorted(CALLS) for n in (2, 1, 0) if n or name not in FROM_FLUX]
)
def test_dimension_below_3_is_one_error(name, n):
    # aggregation_coefficient, moment_rhs_bound and the moment ODE rate of admissibility
    # used to take any n (n = 0 divided by zero)
    with pytest.raises(BadParameter, match=rf"^dimension must be >= 3, got {n}$"):
        CALLS[name](n)

