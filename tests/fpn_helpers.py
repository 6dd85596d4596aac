"""Helpers the tests share that the package itself does not need."""

from argred.softfp import Fpn


def next_up(x: Fpn) -> Fpn:
    """The smallest FPN of x's format strictly above x."""
    fmt = x.fmt
    if x.m == 0:
        return Fpn(1, 1, fmt.e_min_q, fmt)
    if x.sign > 0:
        return Fpn(1, x.m + 1, x.e, fmt)
    if x.m == 1 << (fmt.p - 1) and x.e > fmt.e_min_q:
        return Fpn(-1, (1 << fmt.p) - 1, x.e - 1, fmt)
    if x.m == 1:
        return Fpn.zero(fmt)
    return Fpn(-1, x.m - 1, x.e, fmt)
