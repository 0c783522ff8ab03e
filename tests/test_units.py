"""The axes of units against numpy's linspace and geomspace, bit for bit.

np.linspace is plain arithmetic, so it is called in this process.
np.geomspace also takes log10 and a power; numpy builds for x86 run
those through SIMD kernels (AVX-512 among them) that can round
differently from the C library by an ulp, so the reference runs in a
child process whose numpy is limited to its portable kernels, which
round as the C library does.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdckit import units

MAX = 1.7976931348623157e308

_GEOMSPACE_CHILD = textwrap.dedent(
    """
    import json, sys
    import numpy as np

    for line in sys.stdin:
        low, high, n = json.loads(line)
        with np.errstate(all="ignore"):
            points = np.geomspace(
                float.fromhex(low), float.fromhex(high), n
            ).tolist()
        print(json.dumps([x.hex() for x in points]), flush=True)
    """
)


def _hex(values):
    return [float(x).hex() for x in values]


@pytest.fixture(scope="module")
def portable_geomspace():
    """np.geomspace(low, high, n) as floats, from numpy's portable kernels."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    dispatched = simd.get("found", []) + simd.get("not found", [])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dispatched))
    child = subprocess.Popen(
        [sys.executable, "-c", _GEOMSPACE_CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )

    def geomspace(low, high, n):
        child.stdin.write(json.dumps([low.hex(), high.hex(), n]) + "\n")
        child.stdin.flush()
        return json.loads(child.stdout.readline())

    yield geomspace
    child.stdin.close()
    child.wait()


# counts: mostly short axes, some up to the CLI's 10,000 points
_COUNTS = st.one_of(st.integers(1, 40), st.integers(1, 10_000))
# zero of both signs, subnormal and huge ends, and any finite float
_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, MAX, -MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300, MAX]),
    st.floats(min_value=5e-324, max_value=MAX),
)


class TestLinspace:
    @settings(max_examples=300, deadline=None)
    @given(_ENDS, _ENDS, _COUNTS)
    @example(0.0, 5e-324, 21)  # a step that rounds to zero
    @example(-MAX, MAX, 81)  # a span beyond the float range
    @example(-4e-12, 4e-12, 81)  # a delay axis
    @example(0.3, 0.3, 5)  # a zero span
    @example(2.0, 1.0, 1)
    def test_matches_numpy(self, low, high, n):
        with np.errstate(all="ignore"):
            expected = np.linspace(low, high, n).tolist()
        points = units.linspace(low, high, n)
        assert all(type(x) is float for x in points)
        assert _hex(points) == _hex(expected)


class TestGeomspace:
    @settings(max_examples=200, deadline=None)
    @given(_POSITIVE, _POSITIVE, _COUNTS)
    @example(0.002, 0.2, 25)  # the visibility-curve config
    @example(5e-324, MAX, 10_000)
    @example(1.797693134e308, MAX, 10_000)  # interior powers near overflow
    @example(1.7, 95.0, 1)
    def test_matches_numpy(self, portable_geomspace, low, high, n):
        points = units.geomspace(low, high, n)
        assert all(type(x) is float for x in points)
        assert _hex(points) == portable_geomspace(low, high, n)
