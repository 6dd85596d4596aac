"""Generate the reduction constants for pi and ln 2 at all four presets.

Everything is computed from scratch: pi by Machin's formula, ln 2 by its
binary series, both with rigorous tails; no digit table is trusted.

Run:  python demos/02_constant_tables.py
"""

from argred.constgen import audit, format_table, gen_constants
from argred.realnum import LN2, PI
from argred.softfp import FORMATS

for constant in (PI, LN2):
    sets = [gen_constants(constant, fmt) for fmt in FORMATS.values()]
    print(f"C = {constant.name}")
    print(format_table(sets))
    print()

# Each set carries R ~ 1/C, then C1 ~ 1/R with its last two bits zeroed,
# C2 the remainder on the 8*ulp2(C1) grid, C3 a third mop-up term.
# The audit re-checks every hypothesis of the exactness theorems.
cs = gen_constants(PI, FORMATS["double"])
print("audit of the pi/double set:")
for line in audit(cs).lines():
    print(" ", line)

print("\nR*C1 - 1 =", cs.rc1_minus_1(), "(|.| <= 2^(q-p) =", f"2^{cs.q - cs.fmt.p})")

# The same machinery accepts any user constant via an enclosure, and a
# different number of zeroed bits.
cs3 = gen_constants(PI, FORMATS["double"], q=3)
print("\nwith q = 3, C1 ends in three zero bits:", cs3.c1, "m % 8 =", cs3.c1.m % 8)
