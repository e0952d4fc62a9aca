"""The names of boundary and operator kinds, grid topologies and
condition modes, and the table of the three models, defined without
numpy for the parser; the array layers use them too.

A model is its boundary kind: MODELS maps each to the operator kind,
the grid topology and the fiber rank that go with it.
"""

ANTIPERIODIC, PERIODIC, BAG1D = "antiperiodic", "periodic", "bag1d"
SCALAR_DERIVATIVE, DIRAC_2SPINOR = "scalar_derivative", "dirac_2spinor"
INTERVAL, CIRCLE = "interval", "circle"
MODE_C, MODE_B, MODE_A = "C_final", "B_explicit", "A_raw"

# boundary kind -> (operator kind, grid topology, fiber rank)
MODELS = {ANTIPERIODIC: (SCALAR_DERIVATIVE, INTERVAL, 1),
          PERIODIC: (SCALAR_DERIVATIVE, CIRCLE, 1),
          BAG1D: (DIRAC_2SPINOR, INTERVAL, 2)}
