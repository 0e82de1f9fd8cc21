"""
Ordered arrays and the exact net round trip
===========================================

"""

# An ordered array groups, for each coordinate, beta_i depth-e_i digit
# blocks.  With the canonical block count beta_i = floor((m - u) / e_i)
# the array carries enough digits to rebuild the net prefix exactly.
from evnets import net_to_mooa, mooa_to_net, verify_mooa
from evnets.corpus import hammersley

points = hammersley(2, 4)
arr = net_to_mooa(points, 0, (1, 2))
print("base", arr.base, "m", arr.m, "u", arr.u,
      "e", tuple(arr.e), "beta", arr.beta)

# The defining property quantifies over depth profiles: pick kappa_i
# blocks from the left of each coordinate, total weighted depth at
# most m - u, and demand uniform counts.  Checking only the maximal
# profiles is enough; every smaller profile is a refinement union.
print("ordered-array check:",
      "PASS" if verify_mooa(arr) else "FAIL")

# Round trip: rebuild the net and compare digits.
back = mooa_to_net(arr)
import numpy as np
kept = [b * e for b, e in zip(arr.beta, arr.e)]
same = all(
    np.array_equal(back.digits[:, i, :kept[i]], points.digits[:, i, :kept[i]])
    for i in range(points.dim))
print("digit prefixes equal:", same)

# With u > 0 fewer digits survive; the tail is zero-filled but the
# equidistribution quality is preserved.
partial = mooa_to_net(net_to_mooa(points, 1, (1, 2)))
print("partial rebuild beta:", net_to_mooa(points, 1, (1, 2)).beta,
      "tail zero:", not partial.digits[:, 0, 3:].any())
