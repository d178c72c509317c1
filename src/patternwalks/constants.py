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

# Walk step defaults. All times are expressed in 1/gamma units. dt is the
# work budget of a sample stride and the step of its RK4 fallback: a stride
# of s steps of dt takes one Taylor polynomial only if that costs fewer than
# the 4 s stages of RK4 at dt (see TAYLOR_THETA).
DEFAULT_DT = 0.005
MAX_DT = 0.01
DEFAULT_T_MAX = 50.0
DEFAULT_SAMPLE_EVERY = 0.05

# A walk config may ask for at most this many samples, t_max / sample_every;
# at n = 6 that many samples of the populations take 51 MB.
MAX_SAMPLES = 10**5

# ... and at most this many steps of dt, t_max / dt. A run spends fewer
# stages per block of strides than RK4 at dt would on them, so at most 4
# stages per step of dt. One n = 6 RK4 step took 0.105-0.125 ms of wall
# and of CPU time on a 2-core x86-64 machine (numpy 2.4.6, OpenBLAS
# 0.3.31), so the cap is about 20 minutes of integration.
MAX_STEPS = 10**7

# theta_m: the largest ||h L|| for which the degree-m Taylor polynomial of
# exp(h L) equals exp(h L + E) with ||E|| <= 2^-53 ||h L||, i.e. is exact
# to double precision in backward error. The bound rests only on
# submultiplicativity, so it holds in any operator norm induced by a norm
# on the vectors: expm reads the 1-norm, and the walk's step the smaller
# of its 1-norm and 2-norm bounds (lindblad._Generator.bound). Degrees
# 1-30 are from Higham and Al-Mohy, "Computing matrix functions", Acta
# Numerica 19, 159 (2010), Table A.3; 35-55 from Al-Mohy and Higham, SIAM
# J. Sci. Comput. 33, 488 (2011), Table 3.1. Read only by
# numerics.taylor_degree, for the walk's step and expm.
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

# The walk advances in blocks of k sample strides, k the largest of
# MAX_BLOCK_STRIDES, ..., 2, 1 (halving) whose Taylor degree fits the RK4
# budget of k strides: one expansion per block, and its k samples from one
# product. On the n = 6 benchmark walk (kappa = gamma = 1, stride 0.05,
# t_max 20, norm bound 16.5) an evolve took 0.169 s of CPU with k <= 1
# (degree 17), 0.125 s with k <= 2 (degree 22), 0.095 s with k <= 4
# (degree 29) and 0.084 s with k <= 8 (degree 45), all on one thread; but
# the 46 terms of k = 8 raised a simulate process's peak RSS by 1.8 MB
# over k <= 1's 32.3 MB, against 0.9 MB for k = 4, and an unchunked
# (8 x 46) @ (46 x 4096) product ran on two OpenBLAS threads. 2-core
# x86-64, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31.
MAX_BLOCK_STRIDES = 4

# The block's samples are formed in column chunks this wide, of the
# float64 view of the terms. A (4 x 41) @ (41 x 4096) product ran on one
# OpenBLAS thread, but a (4 x 41) @ (41 x 8192) one (a complex n = 6
# block) on two, at twice the CPU time; in chunks of 1024 columns it took
# 106 us of CPU against 183 us.
BLOCK_COLUMNS = 1024

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
