"""Child processes that run tmcat with numpy's SIMD dispatch cut back.

The dispatch tests compare a default child with children run at reduced
numpy SIMD levels, one of them also on OpenBLAS's generic kernel, and with
children that switch the OpenBLAS kernel alone or pin OpenBLAS to one
thread.  The switches are set in each child's environment only: they are
process-wide settings that belong to the caller, and the library never sets
them.
Each child script prints one JSON object on stdout, with the
(X86_V4, X86_V3) runtime features it saw under "features".
"""

import json
import os
import platform
import subprocess
import sys

SKIP_REASON = (
    "needs x86-64 numpy with runtime dispatch to X86_V4 and X86_V3, "
    "and a CPU that has both, to switch them off"
)
# Child settings, each with the (X86_V4, X86_V3) features the child must see.
REDUCED = (
    ({"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, [False, True]),
    ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3", "OPENBLAS_CORETYPE": "Prescott"},
     [False, False]),
)
# Child settings that change only the OpenBLAS kernel or thread count, at full SIMD.
BLAS_ONLY = (
    ({"OPENBLAS_CORETYPE": "Prescott"}, [True, True]),
    ({"OPENBLAS_CORETYPE": "Sandybridge"}, [True, True]),
    ({"OPENBLAS_NUM_THREADS": "1"}, [True, True]),
)
FEATURES = (
    "from numpy._core._multiarray_umath import __cpu_features__\n"
    "features = [__cpu_features__[k] for k in ('X86_V4', 'X86_V3')]\n"
)


def switchable() -> bool:
    """Whether numpy dispatches to X86_V4 and X86_V3 here, so both can be switched off."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return all(v in __cpu_dispatch__ and __cpu_features__.get(v) for v in ("X86_V4", "X86_V3"))


def run_child(script: str, *args: str, **settings: str) -> dict:
    """Run script with args in a child whose environment adds only settings."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("OPENBLAS_CORETYPE", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-c", FEATURES + script, *args],
        env=dict(env, **settings), capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)
