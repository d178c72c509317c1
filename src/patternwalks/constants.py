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

# Each row the classical chain computes must sum to 1 within this before it
# is renormalized (markov.ctmc_samples); a larger drift is an error.
CHAIN_DRIFT_TOL = 1e-9

# Slack of a Hopfield weight matrix's symmetry and of its [-1, 1] bound
# (hopfield.validate_weights).
WEIGHT_TOL = 1e-12

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
# stages per step of dt. One n = 6 RK4 step (a fallback round, kappa/gamma
# = 10) took 0.049 ms of wall time and as much CPU time, on the default
# OpenBLAS threads, on a 2-core x86-64 machine (Python 3.11.7, numpy 2.4.6,
# OpenBLAS 0.3.31), so the cap is about 8 minutes of integration.
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
# product. A sweep's stack runs in periods of its largest k, in which the
# pairs of every block size share their stage calls, so MAX_BLOCK_STRIDES
# also bounds the samples of a period. On the n = 6 benchmark walk
# (kappa = gamma = 1, stride 0.05, t_max 20, norm bound 16.5) an evolve
# took 0.148 s of CPU with k <= 1 (degree 17), 0.110 s with k <= 2
# (degree 22), 0.086 s with k <= 4 (degree 29) and 0.077 s with k <= 8
# (degree 45), each at CPU/wall 1.0 on the default OpenBLAS threads, its
# sample products split (SAMPLE_PRODUCT_MADDS). The 46 terms of k = 8
# raise a simulate process's peak RSS to 35.2 MB after 40 runs, against
# 34.2 MB for k <= 4 and 33.2 MB for k <= 1. 2-core x86-64, Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31.
MAX_BLOCK_STRIDES = 8

# A block's samples are the (k x (m+1)) weights times the (m+1) terms, each
# term N float64 columns (N = 4 096 for a real R at n = 6, 8 192 for a
# complex one). The product runs in column chunks, N halved until a chunk
# is at most this many multiply-adds (k (m+1) columns), so that OpenBLAS
# runs each on one thread. The threshold was measured only on this shape:
# in a tight loop of (8 x m) @ (m x N) products, begun 0.5 s after import
# (OpenBLAS's threads spin at first), one thread ran every product of up
# to 999 424 multiply-adds and two ran those of 1 015 808 and more. So at
# n = 6 a k = 8 block's 4 096-column product (8 x 46 x 4 096, about 1.5
# million) runs as four of 1 024 columns, and an RK4 step's (1 x 5 x
# 4 096) whole. Unsplit, the benchmark's n = 6 simulate took 0.185 s of CPU
# in 0.094 s of wall time; split, 0.092 s in 0.093 s, with the same bits.
# Same machine as above. Other shapes wake the second thread sooner: in a
# loop of 5 000 (rows x 64) @ (64 x 64) products begun 1 s after import,
# 64 and 96 rows ran on one thread and 128 and 192 rows on two (CPU/wall
# 1.98 and 1.97), and 128 rows is exactly 2^19 multiply-adds. The
# classical chain's products have that shape, so markov.ctmc_samples does
# not read this value: it caps its blocks at d rows (64 at n = 6) instead.
SAMPLE_PRODUCT_MADDS = 2**19

# The walk health-checks a period's samples in chunks of at most this many
# bytes of states, which bounds the check's temporaries. Only a period of
# more than 512 KB of states splits: a stack of many points at n >= 6
# (32 KB a real state). No benchmark workload has one (a sweep-n4 period
# is 336 KB, a simulate-n6 one 256 KB), so the value rests on one run
# that has: an n = 6 sweep over sweep-n4's 25 finite points (t_max 2),
# whose 160-state periods (20 exact points, blocks of up to eight strides)
# split into chunks of 16. It took 0.215 s of CPU unchunked with 89.3 MB
# peak RSS, 0.203 s / 77.8 MB in 1 MB chunks, 0.200 s / 76.3 MB in 512 KB
# ones and 0.202 s / 75.5 MB in 256 KB ones. Default OpenBLAS threads at
# CPU/wall 1.0, 2-core x86-64, Python 3.11.7, numpy 2.4.6.
HEALTH_CHUNK_BYTES = 512 * 1024

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
