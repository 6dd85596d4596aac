"""Walk one argument through the whole reduction pipeline.

Run:  python demos/03_reduction_pipeline.py
"""

from fractions import Fraction

from argred.constgen import gen_constants
from argred.realnum import PI
from argred.reduction import extract_z, first_step, reduce, second_step, sigma_for
from argred.softfp import DOUBLE, Fpn

cs = gen_constants(PI, DOUBLE)
x = Fpn.from_int(10, DOUBLE)
print("reduce x = 10 against C = pi, double precision, N = 0")
print("sigma =", sigma_for(DOUBLE, 0), "=", float(sigma_for(DOUBLE, 0).value))

# Step 0: z-extraction.  One fma against the big constant sigma rounds
# x*R onto the 2^-N grid; subtracting sigma back is exact (Sterbenz).
z, info = extract_z(x, cs)
print("\nz =", z, "=", float(z.value))
print("  x*R - z =", float(info.s), " (|.| <= 1/2 guaranteed)")
print("  z*2^N =", info.k, "uses ell =", info.ell, "bits")

# Step 1: u = fma(x - z*C1).  Exact by the first-step theorem: the
# product z*C1 fits in ell + p - 2 bits and cancellation against x
# brings the difference back to p bits.
u, exact = first_step(x, z, cs)
print("\nu = x - z*C1 =", u, " fma exact:", exact)
print("  as a real:", float(u.value))

# Step 2: nine flops produce v1 + v2 = x - z*C1 - z*C2 with no error.
ss = second_step(x, z, u, cs)
print("\nv1 =", ss.v1)
print("v2 =", ss.v2)
print("  equality holds exactly:", ss.exact, " rounded ops:", ss.ops)

# Step 3: w ~ v2 - z*C3.  v1 + w is the reduced argument with ~2p bits.
out = reduce(x, cs)
print("\nw  =", out.w)
print("x - 3*pi is approximately", float(out.v1.value + out.w.value))
print("measured |v1 + w - (x - z*pi)| <=", float(out.residual_hi))

# Arguments too large for the chosen N are rejected, with the bound named.
try:
    reduce(Fpn.pow2(60, DOUBLE), cs)
except Exception as exc:
    print("\nhuge argument ->", type(exc).__name__, "-", exc)

# A larger N trades range for a finer grid: z lands on multiples of 2^-N.
# N belongs to the constant set (its hypotheses are checked at that N);
# R, C1, C2 and C3 themselves do not depend on it.
out5 = reduce(Fpn.from_int(10, DOUBLE), gen_constants(PI, DOUBLE, n=5))
print("\nwith N = 5: z =", float(out5.z.value), " |x*R - z| <=", float(Fraction(1, 64)))
