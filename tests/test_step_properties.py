"""Property test of one step's invariants over random flux matrices, chi, dt and block counts.

A step keeps the mass to round-off and the density non-negative (with no clamp) at any dt up to
the exact positivity limit h / rate of the upwind update, and its bits do not depend on how many
row blocks the kernels cut the grid into.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kstensor import solver as sv
from kstensor.matrixflux import FluxTensor
from kstensor.potential import DensityField, Grid3, gaussian_values

# each example sets the block count itself, so the `cpus` fixture may span examples
SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
GRID = Grid3(16, 2.0)

ENTRY = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
RANDOM = st.lists(ENTRY, min_size=9, max_size=9).map(lambda e: np.array(e).reshape(3, 3))
# random matrices are non-normal and mostly fail the hypothesis; 3 I added moves the
# orthogonal factor toward I, so that most pass it, and the sign flip turns a pass into a fail
MATRIX = st.builds(
    lambda m, shift, sign: sign * (m + shift * np.eye(3)),
    RANDOM, st.sampled_from([0.0, 3.0]), st.sampled_from([1.0, -1.0]),
)


@SETTINGS
@given(
    matrix=MATRIX,
    chi=st.floats(1.0, 50.0),
    sigma=st.floats(0.25, 0.6),
    seed=st.integers(0, 2**16),
    fraction=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),  # of the exact limit
)
def test_step_keeps_mass_and_sign_with_the_same_bits_for_any_block_count(
    cpus, matrix, chi, sigma, seed, fraction
):
    singular = np.linalg.svd(matrix, compute_uv=False)
    assume(singular[-1] > 1e-3 * singular[0])
    flux = FluxTensor.from_matrix(matrix)
    noise = np.random.default_rng(seed).random((16, 16, 16))  # rough: neighbours far apart
    u = DensityField(GRID, gaussian_values(GRID, 1.0, sigma, (0.1, -0.2, 0.05)) * noise)
    h = GRID.h
    bfaces, rate = sv._drift(sv.solve_potential_v(u), flux, chi, h)
    dt = fraction * h / rate
    if dt * rate > h:  # the limit's round-off: the step takes dt * rate <= h
        dt = np.nextafter(dt, 0.0)
    assert sv._advect(u.values, bfaces, dt, h).min() >= 0.0  # the limit is the upwind update's own

    outs = []
    for blocks in (1, 2, 3):
        cpus(blocks)
        outs.append(sv.step(u, flux, chi, dt))
    assert outs[0].min_value >= 0.0
    assert abs(outs[0].mass - u.mass) <= 1e-13 * u.mass
    for out in outs[1:]:
        np.testing.assert_array_equal(out.values, outs[0].values)
