"""The operator, boundary and condition-mode names a config may give,
and the word scheme.r may take, defined without numpy for the parser;
`operators`, `conditions` and `scheme` use them too."""

ANTIPERIODIC, PERIODIC, BAG1D = "antiperiodic", "periodic", "bag1d"
SCALAR_DERIVATIVE, DIRAC_2SPINOR = "scalar_derivative", "dirac_2spinor"
MODE_C, MODE_B, MODE_A = "C_final", "B_explicit", "A_raw"
AUTO = "auto"  # scheme.r: R = 2 / |lambda_1|
