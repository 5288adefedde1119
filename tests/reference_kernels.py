"""Frozen copies of the collision kernels before their overhead rewrite.

The kernels in `skygrid.sampling` and `skygrid.geometry` were rewritten to
do the same float operations in the same order with less per-call overhead.
`test_kernel_exactness.py` compares them with these copies, which must stay
as they are.
"""

import numpy as np


def segment_free(a, b, boxes) -> bool:
    ax, ay, az = a[0], a[1], a[2]
    dx, dy, dz = b[0] - ax, b[1] - ay, b[2] - az
    for x0, y0, z0, x1, y1, z1 in boxes:
        t_enter = 0.0
        t_exit = 1.0
        hit = True
        for start, delta, lo, hi in ((ax, dx, x0, x1), (ay, dy, y0, y1), (az, dz, z0, z1)):
            if delta == 0.0:
                if start < lo or start > hi:
                    hit = False
                    break
            else:
                t0 = (lo - start) / delta
                t1 = (hi - start) / delta
                if t0 > t1:
                    t0, t1 = t1, t0
                if t0 > t_enter:
                    t_enter = t0
                if t1 < t_exit:
                    t_exit = t1
                if t_enter > t_exit:
                    hit = False
                    break
        if hit:
            return False
    return True


def segments_intersect_cuboids(starts, ends, lo, hi, margin=0.0):
    if len(lo) == 0:
        return np.zeros(len(starts), dtype=bool)
    lo_m = lo - margin
    hi_m = hi + margin
    a = starts[:, None, :]
    d = ends[:, None, :] - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo_m[None, :, :] - a) / d
        t1 = (hi_m[None, :, :] - a) / d
    t_near = np.minimum(t0, t1)
    t_far = np.maximum(t0, t1)
    zero = d == 0
    inside = (a >= lo_m[None, :, :]) & (a <= hi_m[None, :, :])
    t_near = np.where(zero, np.where(inside, -np.inf, np.inf), t_near)
    t_far = np.where(zero, np.where(inside, np.inf, -np.inf), t_far)
    enter = np.max(t_near, axis=-1)
    exit_ = np.min(t_far, axis=-1)
    hit = (enter <= exit_) & (exit_ >= 0.0) & (enter <= 1.0)
    return hit.any(axis=1)
