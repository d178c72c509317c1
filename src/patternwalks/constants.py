"""Central tolerance table and default run parameters.

Every numerical tolerance used for validation lives here so the whole
package agrees on what "Hermitian", "unit trace" or "positive" means.
"""

# Operator / state validation (max-entry norms).
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_FLOOR = -1e-8

# Stochastic objects: rate-matrix column sums and probability-vector sums.
ROW_SUM_TOL = 1e-12

# Fixed-step RK4 defaults. All times are expressed in 1/gamma units.
DEFAULT_DT = 0.005
MAX_DT = 0.01
DEFAULT_T_MAX = 50.0
DEFAULT_SAMPLE_EVERY = 0.05

# A walk config may ask for at most this many samples, t_max / sample_every;
# at n = 6 that many samples of the populations take 51 MB.
MAX_SAMPLES = 10**5

# ... and at most this many RK4 steps, t_max / dt. One n = 6 step took
# 0.105-0.125 ms of wall and of CPU time on a 2-core x86-64 machine (numpy 2.4.6,
# OpenBLAS 0.3.31), so the cap is about 20 minutes of integration.
MAX_STEPS = 10**7

# evolve() aborts with a diagnostics error once a sampled state drifts
# past these; the (tighter) invariants above are what healthy runs meet.
TRACE_ABORT = 1e-6
EIGENVALUE_ABORT = -1e-6

# Mixing-time defaults. The settling tolerance is calibrated so that the
# sup-norm test reads bulk settling rather than the last slow ringing
# mode; at 1e-3 the strength sweep's flat-row property is lost to tails.
MIXING_EPS = 1e-2
SINK_THRESHOLD = 0.99

# Dense density matrices only; 2**6 = 64 is the desk-scale cap, enforced
# when configurations are parsed.
MAX_NEURONS = 6

# Diagonal entries of a density matrix smaller than this (in magnitude)
# are treated as numerical dust when populations are extracted.
POPULATION_DUST = 1e-12
