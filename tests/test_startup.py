"""What a fresh process runs: numpy loads at the first kernel or float call, not at import.

Each case runs in its own interpreter, since the test run has loaded
numpy long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = """
import sys

def numpy_ran():
    # a submodule is in sys.modules only once numpy's own code has executed
    return any(name.startswith("numpy.") for name in sys.modules)
"""

# a chain verdict, its re-check and a two-pencil run no numpy; a refutation
# (the exact kernel) and ALS (the float evaluator) load it
EXACT_FIRST = PRELUDE + """
import freelines
from freelines import fixtures
from freelines.arrangement import candidate_exponents
from freelines.certify import Certified, NotFreeAtExponents, check_certificate, verify_free
from freelines.search import construct_certified

assert not numpy_ran(), "import freelines ran numpy"
free13 = fixtures.free_13()
outcome = verify_free(free13, 6, 6)
assert isinstance(outcome, Certified)
assert check_certificate(free13, outcome.certificate) == (True, None)
assert construct_certified(2, 3).certificate.c == 1
assert not numpy_ran(), "a chain verdict, check_certificate or construct_certified ran numpy"

mutant = fixtures.disjoint_pencils(9, 4)
exps = candidate_exponents(mutant)
refuted = verify_free(mutant, exps.d1, exps.d2)
assert isinstance(refuted, NotFreeAtExponents) and refuted.pairs_scanned == 30
assert "numpy._core" in sys.modules or "numpy.core" in sys.modules
""" + """
from freelines.derivations import assemble_saito_tensor, null_space_from_fields
from freelines.saito import ALSConfig, als_minimize, saito_functional

boolean = fixtures.boolean_arrangement()
cert = saito_functional(boolean, 1, 1).certificate
v = null_space_from_fields(1, ((cert.theta1, 1), (cert.theta2, 1)))
result = als_minimize(assemble_saito_tensor(boolean, v.quotient, v.quotient), ALSConfig(iterations=4, restarts=1))
assert result.loss <= 1e-9 and len(result.history) == 8
print("ok")
"""

# the float evaluator alone loads numpy too
FLOAT_FIRST = PRELUDE + """
from freelines import fixtures
from freelines.derivations import null_space_from_fields
from freelines.saito import saito_functional

cert = saito_functional(fixtures.boolean_arrangement(), 1, 1).certificate
assert not numpy_ran()
v = null_space_from_fields(1, ((cert.theta1, 1), (cert.theta2, 1)))
assert numpy_ran() and v.basis.shape == (9, 3)
print("ok")
"""

# a numpy the process imported first is used as it is, not loaded again
NUMPY_FIRST = """
import numpy
import freelines
from freelines import derivations, exactlinalg, saito

assert exactlinalg.np is derivations.np is saito.np is numpy
print("ok")
"""

# numpy is a dependency: if it is not installed, import fails at once
HIDDEN_NUMPY = """
import sys

class HideNumpy:
    def __init__(self, inner):
        self.inner = inner

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            return None
        return self.inner.find_spec(name, path, target)

sys.meta_path[:] = [HideNumpy(finder) for finder in sys.meta_path]
try:
    import freelines
except ModuleNotFoundError as exc:
    assert exc.name == "numpy" and "numpy" not in sys.modules
    print("ok")
"""


def _fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("code", [EXACT_FIRST, FLOAT_FIRST, NUMPY_FIRST, HIDDEN_NUMPY],
                         ids=["exact_first", "float_first", "numpy_first", "hidden_numpy"])
def test_numpy_loads_only_when_a_call_needs_it(code):
    done = _fresh(code)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stdout + done.stderr
